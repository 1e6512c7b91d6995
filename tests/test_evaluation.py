import numpy as np
import pytest

from protoabs import evaluation
from protoabs.errors import NoLabels
from protoabs.evaluation import ari, confusion, evaluate, purity
from protoabs.model import UNLABELED, LabelVector


def lv(labels, j=None):
    labels = tuple(labels)
    if j is None:
        j = max(l for l in labels if l != UNLABELED) + 1
    return LabelVector(labels=labels, n_classes=j)


def pair_count_ari(assignments, labels):
    """Independent O(n^2) oracle: classify every point pair directly."""
    a = b = c = d = 0
    n = len(assignments)
    for i in range(n):
        for j in range(i + 1, n):
            same_cluster = assignments[i] == assignments[j]
            same_class = labels[i] == labels[j]
            if same_cluster and same_class:
                a += 1
            elif same_cluster:
                b += 1
            elif same_class:
                c += 1
            else:
                d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0 if b == 0 and c == 0 else 0.0
    return 2.0 * (a * d - b * c) / denom


class TestConfusion:
    def test_perfect_clustering_is_permutation_diagonal(self):
        cm = confusion([1, 0, 2, 1], lv([0, 1, 2, 0]))
        assert (cm.counts > 0).sum() == 3
        assert cm.counts[1, 0] == 2

    def test_single_cluster_counts(self):
        cm = confusion([0] * 5, lv([0, 0, 0, 1, 1]))
        assert cm.counts.tolist() == [[3, 2]]

    def test_unlabeled_excluded(self):
        cm = confusion([0, 0, 1], lv([0, UNLABELED, 1], j=2))
        assert cm.n == 2

    def test_all_unlabeled(self):
        with pytest.raises(NoLabels):
            confusion([0, 1], lv([UNLABELED, UNLABELED], j=2))

    @pytest.mark.parametrize("assignments", [[0, -1, 1], [0, 1, -1]], ids=["labeled", "unlabeled"])
    def test_negative_cluster_id_is_rejected(self, assignments):
        # np.add.at would count -1 in the last cluster
        with pytest.raises(ValueError, match="negative cluster id -1"):
            confusion(assignments, lv([0, 1, UNLABELED], j=2))

    def test_a_column_per_class_present(self):
        # nothing is sized by n_classes, which a labels file may set to 2^40
        cm = confusion([0, 1, 1, 0], lv([2, 0, 2, UNLABELED], j=2**40))
        assert cm.col_ids == (0, 2)
        assert cm.counts.tolist() == [[0, 1], [1, 1]]


class TestPurity:
    def test_identical_partitions(self):
        cm = confusion([0, 1, 2], lv([0, 1, 2]))
        assert purity(cm) == 1.0

    def test_worked_example(self):
        # clusters {a,a,b} and {b,b} -> (2 + 2) / 5
        cm = confusion([0, 0, 0, 1, 1], lv([0, 0, 1, 1, 1]))
        assert purity(cm) == pytest.approx(0.8)

    def test_matches_enumeration_on_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            assignments = rng.integers(0, 4, size=n)
            labels = rng.integers(0, 3, size=n)
            cm = confusion(assignments, lv(labels, j=3))
            # direct enumeration of per-cluster majority overlaps
            expected = 0
            for k in set(assignments.tolist()):
                members = labels[assignments == k]
                expected += max((members == j).sum() for j in range(3))
            assert purity(cm) == pytest.approx(expected / n)


class TestAri:
    def test_identical_partitions(self):
        assert ari([0, 1, 2, 1], lv([2, 0, 1, 0], j=3)) == pytest.approx(1.0)

    def test_singletons_vs_one_cluster(self):
        n = 6
        assert ari(list(range(n)), lv([0] * n, j=1)) == pytest.approx(0.0)

    def test_worked_example_matches_pair_count_oracle(self):
        assignments = [0, 0, 0, 1, 1]
        labels = [0, 0, 1, 1, 1]
        assert ari(assignments, lv(labels)) == pytest.approx(
            pair_count_ari(assignments, labels)
        )

    def test_degenerate_single_cluster_single_class(self):
        assert ari([0, 0, 0], lv([0, 0, 0], j=1)) == 1.0

    def test_contingency_equals_pair_counting_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 60))
            assignments = rng.integers(0, int(rng.integers(1, 6)), size=n).tolist()
            labels = rng.integers(0, int(rng.integers(1, 6)), size=n).tolist()
            j = max(labels) + 1
            assert ari(assignments, lv(labels, j=j)) == pytest.approx(
                pair_count_ari(assignments, labels), abs=1e-12
            )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(23)
        assignments = rng.integers(0, 4, size=40)
        labels = rng.integers(0, 3, size=40)
        base_ari = ari(assignments, lv(labels, j=3))
        base_purity = purity(confusion(assignments, lv(labels, j=3)))
        perm_k = rng.permutation(4)
        perm_j = rng.permutation(3)
        a2 = perm_k[assignments]
        l2 = perm_j[labels]
        assert ari(a2, lv(l2, j=3)) == pytest.approx(base_ari)
        assert purity(confusion(a2, lv(l2, j=3))) == pytest.approx(base_purity)

    def test_purity_non_decreasing_under_cluster_split(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = 30
            assignments = rng.integers(0, 3, size=n)
            labels = lv(rng.integers(0, 3, size=n), j=3)
            before = purity(confusion(assignments, labels))
            split = assignments.copy()
            members = np.flatnonzero(split == 0)
            if members.size < 2:
                continue
            split[members[: members.size // 2]] = 3
            assert purity(confusion(split, labels)) >= before - 1e-12


def test_eval_report_serialization():
    report = evaluate([0, 1, 1], lv([0, 1, 1]))
    d = report.to_dict()
    assert d["purity"] == 1.0
    assert d["ari"] == 1.0
    csv_text = report.confusion_csv()
    assert csv_text.splitlines()[0] == "cluster,class_0,class_1"


def test_evaluate_counts_the_confusion_matrix_once(monkeypatch):
    calls = []
    counted = evaluation.confusion
    monkeypatch.setattr(evaluation, "confusion", lambda *args: calls.append(1) or counted(*args))
    rng = np.random.default_rng(0)
    assignments, labels = rng.integers(0, 4, 60), lv(rng.integers(0, 3, 60).tolist(), 3)
    report = evaluate(assignments, labels)
    assert len(calls) == 1
    assert report.ari == ari(assignments, labels)
