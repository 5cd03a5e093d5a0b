import numpy as np
import pytest

from dualmp.metrics import accuracy, evaluate, roc_auc, tied_ranks


def pair_counting_auc(scores, labels):
    """Independent oracle: concordant pairs plus half the ties over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1.0 if p > n else (0.5 if p == n else 0.0) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


# frozen from the confusion-matrix oracle (plain counting, threshold fraud > 0.5)
FIXTURES = [
    ([0.9, 0.1], [1, 0],
     {"auc": 1.0, "recall": 1.0, "f1_macro": 1.0, "gmean": 1.0, "tp": 1, "fp": 0, "tn": 1, "fn": 0}),
    ([0.1, 0.9], [1, 0],
     {"auc": 0.0, "recall": 0.0, "f1_macro": 0.0, "gmean": 0.0, "tp": 0, "fp": 1, "tn": 0, "fn": 1}),
    ([0.5, 0.5], [1, 0],
     {"auc": 0.5, "recall": 0.0, "f1_macro": 1 / 3, "gmean": 0.0, "tp": 0, "fp": 0, "tn": 1, "fn": 1}),
    ([0.8, 0.7, 0.3, 0.2], [1, 0, 1, 0],
     {"auc": 0.75, "recall": 0.5, "f1_macro": 0.5, "gmean": 0.5, "tp": 1, "fp": 1, "tn": 1, "fn": 1}),
    ([0.9, 0.8, 0.2, 0.1, 0.6], [1, 1, 0, 0, 0],
     {"auc": 1.0, "recall": 1.0, "f1_macro": 0.8, "gmean": 0.816496580927726,
      "tp": 2, "fp": 1, "tn": 2, "fn": 0}),
    ([0.3, 0.2, 0.1], [1, 1, 1],
     {"auc": float("nan"), "recall": 0.0, "f1_macro": 0.0, "gmean": 0.0,
      "tp": 0, "fp": 0, "tn": 0, "fn": 3}),
    ([0.9, 0.95, 0.99], [0, 0, 0],
     {"auc": float("nan"), "recall": 0.0, "f1_macro": 0.0, "gmean": 0.0,
      "tp": 0, "fp": 3, "tn": 0, "fn": 0}),
    ([0.6, 0.6, 0.6, 0.4], [1, 0, 1, 0],
     {"auc": 0.75, "recall": 1.0, "f1_macro": 0.7333333333333334, "gmean": 0.7071067811865476,
      "tp": 2, "fp": 1, "tn": 1, "fn": 0}),
    ([0.51, 0.49, 0.5, 0.7, 0.2, 0.9], [1, 0, 0, 1, 0, 1],
     {"auc": 1.0, "recall": 1.0, "f1_macro": 1.0, "gmean": 1.0, "tp": 3, "fp": 0, "tn": 3, "fn": 0}),
    ([0.45, 0.55, 0.65, 0.35, 0.75, 0.25, 0.85, 0.15], [0, 1, 0, 1, 1, 0, 1, 0],
     {"auc": 0.8125, "recall": 0.75, "f1_macro": 0.75, "gmean": 0.75, "tp": 3, "fp": 1, "tn": 3, "fn": 1}),
]


class TestAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_reversed_ranking(self):
        assert roc_auc([0.1, 0.9], [1, 0]) == 0.0

    def test_tie_handling(self):
        assert roc_auc([0.5, 0.5], [1, 0]) == 0.5

    def test_single_class_warns_nan(self):
        with pytest.warns(UserWarning, match="single-class"):
            assert np.isnan(roc_auc([0.5, 0.6], [1, 1]))

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            labels = rng.integers(0, 2, size=20)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(20), 2)  # coarse grid forces ties
            assert abs(roc_auc(scores, labels) - pair_counting_auc(scores, labels)) < 1e-12


class TestTiedRanks:
    def test_plain_ranks(self):
        assert tied_ranks([0.1, 0.3, 0.2]).tolist() == [1.0, 3.0, 2.0]

    def test_average_on_ties(self):
        assert tied_ranks([5.0, 5.0, 1.0]).tolist() == [2.5, 2.5, 1.0]


class TestEvaluateFixtures:
    @pytest.mark.parametrize("scores,labels,expected", FIXTURES)
    def test_frozen_fixture(self, scores, labels, expected):
        if np.min(labels) == np.max(labels):
            with pytest.warns(UserWarning):
                report = evaluate(scores, labels)
        else:
            report = evaluate(scores, labels)
        got = report.as_dict()
        for key, want in expected.items():
            if isinstance(want, float) and np.isnan(want):
                assert np.isnan(got[key])
            else:
                assert got[key] == pytest.approx(want, abs=1e-12), key

    def test_counts_cover_node_set(self):
        report = evaluate([0.9, 0.2, 0.6, 0.4], [1, 0, 0, 1])
        assert report.tp + report.fp + report.tn + report.fn == 4

    def test_empty_node_set_rejected(self):
        with pytest.raises(ValueError, match="empty node set"):
            evaluate(np.array([]), np.array([], dtype=int))

    def test_evaluates_only_the_subset(self):
        scores = np.array([0.9, 0.1, 0.9, 0.1])
        labels = np.array([1, 0, 0, 1])
        report = evaluate(scores[:2], labels[:2])
        assert report.auc == 1.0 and report.recall == 1.0

    def test_exact_half_predicts_benign(self):
        # argmax of (benign, fraud) on a 0.5/0.5 row picks benign
        with pytest.warns(UserWarning):  # single-class set also makes AUC undefined
            report = evaluate([0.5], [0])
        assert report.fp == 0 and report.tn == 1


def test_accuracy_helper():
    assert accuracy([0.9, 0.1, 0.6], [1, 0, 0]) == pytest.approx(2 / 3)


def test_accuracy_over_no_rows_rejected():
    # it once returned NaN with two RuntimeWarnings
    with pytest.raises(ValueError, match="empty node set"):
        accuracy(np.array([]), np.array([], dtype=int))


@pytest.mark.parametrize("score", [evaluate, accuracy])
@pytest.mark.parametrize(
    "scores, labels",
    [([0.9, 0.1, 0.8], [1, 0]), ([0.9, 0.1], [1, 0, 1]), ([[0.9, 0.1], [0.8, 0.2]], [[1, 0], [1, 0]])],
    ids=["more-scores", "more-labels", "two-dimensional"],
)
def test_misaligned_scores_and_labels_rejected(score, scores, labels):
    with pytest.raises(ValueError, match="not aligned 1-D arrays"):
        score(scores, labels)
