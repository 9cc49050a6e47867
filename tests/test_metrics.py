"""Ranking metrics against brute-force oracles, plus the Welch test."""

import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from melgauge.exceptions import (
    DegenerateVarianceError,
    EmptySummaryError,
    SchemaError,
    UndefinedMetricError,
)
from melgauge.metrics import (
    TagTable,
    load_tag_table,
    macro_summary,
    pr_auc,
    read_tag_csv,
    roc_auc,
    t_test_independent,
)


def oracle_roc(scores, labels):
    """O(n^2) pair counting: wins + half ties over all pos/neg pairs."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_average_precision(scores, labels):
    """Walk ranks in stable descending-score order, average the precision
    observed at each positive."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    total = 0.0
    n_pos = sum(labels)
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            total += hits / rank
    return total / n_pos


def oracle_welch(a, b):
    """Independent Welch formula; p by integrating the t density."""
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)
    sa, sb = va / na, vb / nb
    t = (ma - mb) / math.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (na - 1) + sb**2 / (nb - 1))

    def t_pdf(x):
        log_norm = (
            math.lgamma((df + 1) / 2)
            - math.lgamma(df / 2)
            - 0.5 * math.log(df * math.pi)
        )
        return math.exp(log_norm - (df + 1) / 2 * math.log1p(x * x / df))

    tail, _ = quad(t_pdf, abs(t), math.inf)
    return t, 2.0 * tail


# ------------------------------------------------------------------ ROC AUC


class TestRocAuc:
    def test_four_item_example(self):
        assert roc_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_pair_count_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            if rng.random() < 0.5:
                scores = rng.random(n)
            else:
                scores = rng.integers(0, 5, size=n) / 4.0  # force ties
            got = roc_auc(scores, labels)
            assert got == pytest.approx(oracle_roc(scores, labels), abs=1e-12)

    def test_monotone_transform_invariance(self, rng):
        scores = rng.random(30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 0, 1
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(5 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(scores**3, labels) == pytest.approx(base, abs=1e-12)

    def test_negation_complements(self, rng):
        scores = rng.permutation(np.linspace(0.0, 1.0, 20))  # distinct, no ties
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        assert roc_auc(scores, labels) + roc_auc(-scores, labels) == pytest.approx(
            1.0, abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 1)), min_size=2, max_size=80),
        st.sampled_from([0.25, 1.0, 0.1, -0.25]),
    )
    def test_equals_scipy_rank_statistic(self, pairs, scale):
        # few distinct levels, so most draws hold tie groups of several
        # sizes; a negative scale ranks the same ties in reverse
        scores = np.array([s for s, _ in pairs], dtype=np.float64) * scale
        labels = np.array([label for _, label in pairs])
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        if n_pos == 0 or n_neg == 0:
            return
        u = stats.rankdata(scores)[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
        assert roc_auc(scores, labels) == float(u / (n_pos * n_neg))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=2, max_size=40))
    def test_equals_pair_count_oracle_on_ties(self, pairs):
        scores = [s / 4.0 for s, _ in pairs]
        labels = [label for _, label in pairs]
        assume(0 < sum(labels) < len(labels))
        assert roc_auc(scores, labels) == pytest.approx(oracle_roc(scores, labels), abs=1e-12)

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.5, 0.6], [1, 1])
        with pytest.raises(UndefinedMetricError):
            roc_auc([0.5, 0.6], [0, 0])

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            roc_auc([0.5, 0.6], [0, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            roc_auc([0.5, 0.6, 0.7], [0, 1])


# ------------------------------------------------------------------- PR AUC


class TestPrAuc:
    def test_four_item_example(self):
        assert pr_auc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == pytest.approx(
            (1.0 + 2.0 / 3.0) / 2.0, abs=1e-4
        )

    def test_all_positives_first(self):
        assert pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_last(self):
        assert pr_auc([0.9, 0.8, 0.7, 0.6], [0, 0, 0, 1]) == pytest.approx(0.25)

    def test_matches_hand_enumeration(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 21))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[int(rng.integers(0, n))] = 1
            if rng.random() < 0.5:
                scores = rng.random(n)
            else:
                scores = rng.integers(0, 4, size=n) / 3.0
            got = pr_auc(scores, labels)
            want = oracle_average_precision(list(scores), list(labels))
            assert got == pytest.approx(want, abs=1e-12)

    def test_ties_keep_input_order(self):
        # same multiset of (score, label) pairs, different input order:
        # the positive first wins the tie and the metric moves
        first = pr_auc([0.5, 0.5], [1, 0])
        second = pr_auc([0.5, 0.5], [0, 1])
        assert first == 1.0
        assert second == 0.5

    def test_one_iff_positives_outrank(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 15))
            scores = rng.permutation(np.linspace(0.05, 0.95, n))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            value = pr_auc(scores, labels)
            pos_min = scores[labels == 1].min()
            neg = scores[labels == 0]
            separated = neg.size == 0 or pos_min > neg.max()
            assert (value == 1.0) == separated

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=1, max_size=40))
    def test_equals_precision_at_each_positive_on_ties(self, pairs):
        scores = [s / 4.0 for s, _ in pairs]
        labels = [label for _, label in pairs]
        assume(sum(labels) > 0)
        assert pr_auc(scores, labels) == pytest.approx(
            oracle_average_precision(scores, labels), abs=1e-12
        )

    def test_no_positives_raises(self):
        with pytest.raises(UndefinedMetricError):
            pr_auc([0.5, 0.6], [0, 0])

    def test_all_positives_is_one_without_warning(self):
        # a ranking with no negatives is defined for PR AUC, unlike ROC AUC
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pr_auc([0.3, 0.9, 0.3, 0.1], [1, 1, 1, 1]) == 1.0


def test_non_finite_scores_raise():
    # a NaN would otherwise sort last and score as the lowest rank
    for metric in (roc_auc, pr_auc):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                metric([0.2, bad, 0.5], [0, 1, 1])


# ------------------------------------------------------------ macro summary


def two_tag_table():
    # tag "a" separates perfectly (ROC 1.0); tag "b" scores 0.75
    scores = np.array(
        [
            [0.9, 0.9],
            [0.8, 0.8],
            [0.2, 0.7],
            [0.1, 0.6],
        ]
    )
    labels = np.array(
        [
            [1, 1],
            [1, 0],
            [0, 1],
            [0, 0],
        ]
    )
    return TagTable(scores=scores, labels=labels, tag_names=("a", "b"))


class TestMacroSummary:
    def test_mean_of_per_tag(self):
        summary = macro_summary(two_tag_table())
        assert summary.per_tag_roc == (1.0, 0.75)
        assert summary.macro_roc == pytest.approx(0.875)
        assert summary.skipped_tags == ()

    def test_skips_single_class_tags(self):
        scores = np.array([[0.9, 0.4], [0.1, 0.6]])
        labels = np.array([[1, 1], [0, 1]])  # tag "z" has no negatives
        summary = macro_summary(TagTable(scores, labels, ("y", "z")))
        assert summary.tag_names == ("y",)
        assert summary.skipped_tags == ("z",)
        assert summary.macro_roc == 1.0

    def test_all_skipped_raises(self):
        scores = np.array([[0.9], [0.1]])
        labels = np.array([[1], [1]])
        with pytest.raises(EmptySummaryError):
            macro_summary(TagTable(scores, labels, ("only",)))

    def test_macro_within_per_tag_range(self, rng):
        scores = rng.random((30, 5))
        labels = rng.integers(0, 2, size=(30, 5))
        labels[0, :] = 0
        labels[1, :] = 1
        summary = macro_summary(TagTable(scores, labels, tuple("abcde")))
        assert min(summary.per_tag_roc) <= summary.macro_roc <= max(summary.per_tag_roc)
        assert min(summary.per_tag_pr) <= summary.macro_pr <= max(summary.per_tag_pr)

    def test_item_permutation_invariant(self, rng):
        scores = rng.permutation(np.linspace(0.01, 0.99, 40)).reshape(20, 2)
        labels = rng.integers(0, 2, size=(20, 2))
        labels[0, :] = 0
        labels[1, :] = 1
        base = macro_summary(TagTable(scores, labels, ("a", "b")))
        perm = rng.permutation(20)
        shuffled = macro_summary(TagTable(scores[perm], labels[perm], ("a", "b")))
        assert shuffled.per_tag_roc == pytest.approx(base.per_tag_roc, abs=1e-12)
        assert shuffled.per_tag_pr == pytest.approx(base.per_tag_pr, abs=1e-12)


@pytest.mark.parametrize("n_items, n_tags, levels", [(1, 3, 2), (7, 6, 2), (40, 9, 4), (300, 5, 11), (3000, 4, 101)])
def test_macro_summary_equals_per_tag_metrics_exactly(rng, n_items, n_tags, levels):
    # few score levels, so most tags hold large tie groups; some columns
    # are forced to one class so that those tags are skipped
    for _ in range(20):
        scores = rng.integers(0, levels, size=(n_items, n_tags)) / (levels - 1)
        labels = (rng.random((n_items, n_tags)) < rng.uniform(0.05, 0.6, n_tags)).astype(int)
        labels[:, rng.random(n_tags) < 0.25] = 0
        labels[:, rng.random(n_tags) < 0.15] = 1
        names = tuple(f"t{j}" for j in range(n_tags))
        evaluable = [j for j in range(n_tags) if 0 < labels[:, j].sum() < n_items]
        if not evaluable:
            with pytest.raises(EmptySummaryError):
                macro_summary(TagTable(scores, labels, names))
            continue
        summary = macro_summary(TagTable(scores, labels, names))
        per_roc = [roc_auc(scores[:, j], labels[:, j]) for j in evaluable]
        per_pr = [pr_auc(scores[:, j], labels[:, j]) for j in evaluable]
        # all three share one ranking, so also check each tag against
        # oracles that share none of its code
        for j, roc, pr in zip(evaluable, per_roc, per_pr):
            hits = labels[:, j] == 1
            n_pos = int(hits.sum())
            u = stats.rankdata(scores[:, j])[hits].sum() - n_pos * (n_pos + 1) / 2.0
            assert roc == float(u / (n_pos * (n_items - n_pos)))
            want = oracle_average_precision(list(scores[:, j]), list(labels[:, j]))
            assert pr == pytest.approx(want, abs=1e-12)
        assert summary.tag_names == tuple(names[j] for j in evaluable)
        assert summary.skipped_tags == tuple(n for j, n in enumerate(names) if j not in evaluable)
        assert summary.per_tag_roc == tuple(per_roc)
        assert summary.per_tag_pr == tuple(per_pr)
        assert summary.macro_roc == float(np.mean(per_roc))
        assert summary.macro_pr == float(np.mean(per_pr))


class TestTagTable:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            TagTable(np.zeros((3, 2)), np.zeros((3, 3), dtype=int), ("a", "b"))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError):
            TagTable(np.zeros((3, 2)), np.zeros((3, 2), dtype=int), ("a",))

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError):
            TagTable(np.full((2, 1), 1.5), np.zeros((2, 1), dtype=int), ("a",))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            TagTable(np.zeros((2, 1)), np.full((2, 1), 3), ("a",))

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError, match=r"must be 2-D \(items x tags\)$"):
            TagTable(np.zeros(2), np.zeros(2, dtype=int), ("a",))

    def test_arrays_frozen(self):
        table = two_tag_table()
        with pytest.raises(ValueError):
            table.scores[0, 0] = 0.5


# ------------------------------------------------------------------ t-test


class TestWelch:
    def test_identical_samples(self):
        t, p = t_test_independent([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == 1.0

    def test_clearly_different(self):
        t, p = t_test_independent([0.0, 0.0, 0.0, 0.0], [10.0, 10.0, 10.0, 10.0001])
        assert p < 0.001

    def test_swap_negates_t(self):
        a = [0.1, 0.4, 0.3, 0.9]
        b = [0.2, 0.8, 0.5]
        t_ab, p_ab = t_test_independent(a, b)
        t_ba, p_ba = t_test_independent(b, a)
        assert t_ab == pytest.approx(-t_ba, abs=1e-15)
        assert p_ab == pytest.approx(p_ba, abs=1e-15)

    def test_matches_integral_oracle(self, rng):
        for _ in range(20):
            na = int(rng.integers(2, 12))
            nb = int(rng.integers(2, 12))
            a = list(rng.normal(0.0, 1.0, size=na))
            b = list(rng.normal(0.3, 2.0, size=nb))
            t, p = t_test_independent(a, b)
            t_ref, p_ref = oracle_welch(a, b)
            assert t == pytest.approx(t_ref, abs=1e-9)
            assert p == pytest.approx(p_ref, abs=1e-6)

    def test_p_equals_scipy_t_sf(self, rng):
        for _ in range(50):
            a = rng.normal(0.0, 1.0, size=int(rng.integers(2, 30)))
            b = rng.normal(0.5, 3.0, size=int(rng.integers(2, 30)))
            t, p = t_test_independent(a, b)
            se_a = a.var(ddof=1) / a.size
            se_b = b.var(ddof=1) / b.size
            df = (se_a + se_b) ** 2 / (se_a**2 / (a.size - 1) + se_b**2 / (b.size - 1))
            assert p == min(2.0 * float(stats.t.sf(abs(t), df)), 1.0)

    def test_zero_variance_equal_means(self):
        t, p = t_test_independent([2.0, 2.0], [2.0, 2.0])
        assert (t, p) == (0.0, 1.0)

    def test_zero_variance_different_means(self):
        with pytest.raises(DegenerateVarianceError):
            t_test_independent([2.0, 2.0], [3.0, 3.0])

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            t_test_independent([1.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ([[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0], "samples must be 1-D"),
            ([1.0, 2.0], [1.0, math.nan], "samples must be finite"),
            ([math.inf, 2.0], [1.0, 2.0], "samples must be finite"),
        ],
        ids=["two-dimensional", "nan", "inf"],
    )
    def test_rejects_samples_that_are_not_finite_and_1d(self, a, b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            t_test_independent(a, b)

    def test_one_sided_variance_ok(self):
        t, p = t_test_independent([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
        assert t > 0
        assert 0.0 < p < 1.0


# --------------------------------------------------------------------- I/O


def csv_module_read_tag_csv(path, labels=False):
    """The tag CSV reader as it was before the one-pass parse, kept as the
    reference: every line goes through csv.reader, every cell through float()."""
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


def _outcome(reader, path, labels):
    try:
        names, values = reader(path, labels=labels)
    except SchemaError as exc:
        return "error", str(exc)
    return names, values.shape, values.tobytes()


GOOD_CELLS = ["0", "1", "0.0", "1.0", " 1 ", "0_1", "0_0", "-0", "1e0", "0.25", " .5", "1."]
# "0\x0b1" holds a line break for str.splitlines but not for csv
BAD_CELLS = ["", " ", "2", "-0.1", "1_0", "nan", "inf", "-inf", "x", "0.5.", "1__0", "\t0.3x", "0\x0b1"]
BLANK_LINES = ["", " ", ",", " , ,", "\t"]


@st.composite
def tag_csv_text(draw):
    """A header, mostly valid, and body lines, mostly as wide as the header,
    with blank lines, bad cells, short and long rows and mixed line endings."""
    name = st.sampled_from(["a", "b", " c ", "d", "a b", "", "b "])
    distinct = st.lists(name, min_size=1, max_size=4, unique_by=str.strip).filter(lambda n: "" not in n)
    names = draw(st.one_of(distinct, distinct, distinct, st.lists(name, min_size=1, max_size=4)))
    good = st.sampled_from(GOOD_CELLS)
    bad = st.sampled_from(BAD_CELLS)
    row = st.one_of(
        st.lists(good, min_size=len(names), max_size=len(names)),
        st.lists(st.one_of(good, good, bad), min_size=len(names), max_size=len(names)),
        st.lists(good, min_size=1, max_size=len(names) + 1),
    ).map(",".join)
    lines = [
        *draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2)),
        ",".join(names),
        *draw(st.lists(st.one_of(row, row, row, st.sampled_from(BLANK_LINES)), max_size=8)),
    ]
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3))
    text = "".join(line + endings[i % len(endings)] for i, line in enumerate(lines))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=tag_csv_text(), labels=st.booleans())
def test_reader_equals_csv_module_reader(tmp_path, text, labels):
    path = tmp_path / "tags.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_tag_csv, path, labels) == _outcome(csv_module_read_tag_csv, path, labels)


class TestTagIO:
    def write_pair(self, tmp_path, pred_rows, label_rows, header="a,b"):
        pred = tmp_path / "pred.csv"
        labels = tmp_path / "labels.csv"
        pred.write_text("\n".join([header] + pred_rows) + "\n")
        labels.write_text("\n".join([header] + label_rows) + "\n")
        return pred, labels

    def test_roundtrip(self, tmp_path):
        pred, labels = self.write_pair(
            tmp_path,
            ["0.9,0.9", "0.8,0.8", "0.2,0.7", "0.1,0.6"],
            ["1,1", "1,0", "0,1", "0,0"],
        )
        table = load_tag_table(pred, labels)
        assert table.tag_names == ("a", "b")
        summary = macro_summary(table)
        assert summary.macro_roc == pytest.approx(0.875)

    def test_header_mismatch_names_first_tag(self, tmp_path):
        pred = tmp_path / "pred.csv"
        labels = tmp_path / "labels.csv"
        pred.write_text("a,b\n0.9,0.1\n0.2,0.8\n")
        labels.write_text("a,c\n1,0\n0,1\n")
        with pytest.raises(SchemaError, match="'c'"):
            load_tag_table(pred, labels)

    def test_headers_of_different_lengths(self, tmp_path):
        pred = tmp_path / "pred.csv"
        labels = tmp_path / "labels.csv"
        pred.write_text("a,b\n0.9,0.1\n")
        labels.write_text("a,b,c\n1,0,1\n")
        with pytest.raises(SchemaError, match="^predictions have 2 tags, labels have 3$"):
            load_tag_table(pred, labels)

    def test_row_count_mismatch(self, tmp_path):
        pred, labels = self.write_pair(tmp_path, ["0.9,0.1"], ["1,0", "0,1"])
        with pytest.raises(SchemaError):
            load_tag_table(pred, labels)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.9\n")
        with pytest.raises(SchemaError, match="line 2"):
            read_tag_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.9,oops\n")
        with pytest.raises(SchemaError, match="line 2"):
            read_tag_csv(path)

    def test_empty_header_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,,b\n0.1,0.2,0.3\n")
        with pytest.raises(SchemaError) as err:
            read_tag_csv(path)
        assert str(err.value) == f"{path}: header column 2 is empty"

    def test_blank_header_cell_counts_as_empty(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b, \n0.1,0.2,0.3\n")
        with pytest.raises(SchemaError, match="header column 3 is empty$"):
            read_tag_csv(path)

    def test_float_spellings_accepted(self, tmp_path):
        # Cells are parsed by float(): spaces around a number and digit
        # underscores are accepted ("0_1" is 1.0, "1_0" is 10.0).
        path = tmp_path / "ok.csv"
        path.write_text("a,b\n 0.5 ,0_1\n1e-1,  1.\n")
        names, values = read_tag_csv(path)
        assert names == ("a", "b")
        assert values.tolist() == [[0.5, 1.0], [0.1, 1.0]]
        labels = tmp_path / "labels.csv"
        labels.write_text("a,b\n 1 ,0_0\n0.0,1.0\n")
        assert read_tag_csv(labels, labels=True)[1].tolist() == [[1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize(
        "cell, shown",
        [("nan", "'nan'"), ("inf", "'inf'"), ("-inf", "'-inf'"), ("1_0", "'1_0'"),
         (" 1.5", "' 1.5'"), ("-0.1", "'-0.1'")],
    )
    def test_score_outside_unit_interval_names_line_and_tag(self, tmp_path, cell, shown):
        path = tmp_path / "pred.csv"
        path.write_text(f"a,b\n0.1,0.2\n\n0.3,{cell}\n0.4,nan\n")
        with pytest.raises(SchemaError) as err:
            read_tag_csv(path)
        assert str(err.value) == (
            f"{path}: line 4, tag 'b': {shown} is not a finite score in [0, 1]"
        )

    @pytest.mark.parametrize("cell", ["2", "0.5", "nan", "inf", "-1", "1_0"])
    def test_label_other_than_0_or_1_names_line_and_tag(self, tmp_path, cell):
        path = tmp_path / "labels.csv"
        path.write_text(f"x,y,z\n1,0,1\n0,{cell},{cell}\n")
        with pytest.raises(SchemaError) as err:
            read_tag_csv(path, labels=True)
        assert str(err.value) == f"{path}: line 3, tag 'y': {cell!r} is not a label of 0 or 1"

    def test_load_tag_table_checks_labels_as_labels(self, tmp_path):
        pred, labels = self.write_pair(tmp_path, ["0.9,0.1", "0.2,0.8"], ["1,0", "0.5,1"])
        with pytest.raises(SchemaError, match=r"labels.csv: line 3, tag 'a': '0.5' is not a label"):
            load_tag_table(pred, labels)

    def test_tag_table_keeps_its_own_value_errors(self):
        with pytest.raises(ValueError, match="^scores must be finite$"):
            TagTable(scores=[[np.nan]], labels=[[1]], tag_names=("a",))
        with pytest.raises(ValueError, match=r"^scores must lie in \[0, 1\]$"):
            TagTable(scores=[[2.0]], labels=[[1]], tag_names=("a",))
        with pytest.raises(ValueError, match="^labels must be 0/1"):
            TagTable(scores=[[0.5]], labels=[[2]], tag_names=("a",))

    @pytest.mark.parametrize(
        "text",
        ["a,b\n0\x0b1,0\n", "a,b\n0\x1c1,0\n", "a,b\n0\x851,0\n", "a,b\n0\u20281,0\n",
         "a,b\r\n0.1,0.2\r\r\n\r0.3,x\n"],
        ids=["vt", "fs", "nel", "line-separator", "cr-runs"],
    )
    def test_only_cr_and_lf_end_lines(self, tmp_path, text):
        # csv ends lines at \r and \n only; str.splitlines would also split here
        path = tmp_path / "pred.csv"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_tag_csv, path, False) == _outcome(csv_module_read_tag_csv, path, False)
        assert _outcome(read_tag_csv, path, False)[0] == "error"

    def test_quoted_header_names_are_parsed_as_csv(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text('"a,b", "c"\n0.1,0.2\n')
        names, values = read_tag_csv(path)
        assert names == ("a,b", '"c"')
        assert values.tolist() == [[0.1, 0.2]]

    @pytest.mark.parametrize("body", ['0.1,"0.2"\n', '""\n', '0.1,0.2"\n'], ids=["quoted-cell", "empty-quotes", "stray-quote"])
    def test_quoted_body_cell_rejected_with_its_line(self, tmp_path, body):
        path = tmp_path / "pred.csv"
        path.write_text("a,b\n\n0.3,0.4\n" + body + "0.5,x\n")
        with pytest.raises(SchemaError) as err:
            read_tag_csv(path)
        assert str(err.value) == f"{path}: line 4: quoted cells are only allowed in the header"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        pred = tmp_path / "pred.csv"
        labels = tmp_path / "labels.csv"
        pred.write_bytes("\ufeffa,b\n0.9,0.1\n0.2,0.8\n".encode("utf-8"))
        labels.write_text("a,b\n1,0\n0,1\n")
        table = load_tag_table(pred, labels)
        assert table.tag_names == ("a", "b")
        assert table.scores.tolist() == [[0.9, 0.1], [0.2, 0.8]]
