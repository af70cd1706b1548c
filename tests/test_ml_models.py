"""Tests for boosting, forests, SVM, logistic, majority, sampling, eval."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import NotFittedError
from repro.ml.boosting import AdaBoostClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.logistic import LogisticRegression
from repro.ml.majority import MajorityClassifier
from repro.ml.model_eval import (
    confusion_matrix,
    cross_validate,
    evaluate,
    kfold_indices,
)
from repro.ml.sampling import oversample
from repro.ml.svm import LinearSVMClassifier


def blob_data(n=500, seed=0, n_classes=2):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, size=(n, 6))
    y = np.clip((X[:, 0] + X[:, 1]) // 3, 0, n_classes - 1).astype(np.int64)
    return X, y


class TestAdaBoost:
    def test_beats_stump_on_hard_problem(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(600, 6))
        y = (X[:, 0] ^ X[:, 1] ^ X[:, 2]).astype(np.int64)
        from repro.ml.tree import DecisionTreeClassifier
        stump = DecisionTreeClassifier(max_depth=2).fit(X, y)
        boosted = AdaBoostClassifier(n_rounds=20, base_max_depth=2).fit(X, y)
        assert ((boosted.predict(X) == y).mean()
                >= (stump.predict(X) == y).mean())

    def test_multiclass(self):
        X, y = blob_data(n_classes=4)
        model = AdaBoostClassifier(n_rounds=8).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.7

    def test_single_class_degenerate(self):
        X = np.zeros((10, 2), dtype=int)
        y = np.zeros(10, dtype=int)
        model = AdaBoostClassifier().fit(X, y)
        assert (model.predict(X) == 0).all()

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_rounds=0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            AdaBoostClassifier().predict(np.zeros((1, 2)))


class TestForest:
    @pytest.mark.parametrize("mode", ["plain", "balanced", "weighted"])
    def test_modes_learn(self, mode):
        X, y = blob_data()
        model = RandomForestClassifier(n_trees=8, mode=mode, seed=1).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.75

    def test_balanced_bootstrap_helps_minority_recall(self):
        rng = np.random.default_rng(3)
        X = rng.integers(0, 5, size=(800, 5))
        y = ((X[:, 0] >= 4) & (X[:, 1] >= 4)).astype(np.int64)  # rare class
        plain = RandomForestClassifier(n_trees=10, mode="plain", seed=2,
                                       min_support_fraction=0.05).fit(X, y)
        balanced = RandomForestClassifier(n_trees=10, mode="balanced", seed=2,
                                          min_support_fraction=0.05).fit(X, y)
        minority = y == 1
        plain_recall = (plain.predict(X)[minority] == 1).mean()
        balanced_recall = (balanced.predict(X)[minority] == 1).mean()
        assert balanced_recall >= plain_recall

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(mode="chaotic")

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_trees=0)
        with pytest.raises(ValueError):
            RandomForestClassifier(max_features=0.0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict(np.zeros((1, 2)))


class TestSVM:
    def test_linearly_separable(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(400, 3))
        y = (X @ np.array([1.0, -2.0, 0.5]) > 0).astype(np.int64)
        model = LinearSVMClassifier(n_epochs=6, seed=1).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9

    def test_multiclass_one_vs_rest(self):
        X, y = blob_data(n_classes=3)
        model = LinearSVMClassifier(n_epochs=4).fit(X.astype(float), y)
        assert (model.predict(X.astype(float)) == y).mean() > 0.6

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            LinearSVMClassifier(lam=0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LinearSVMClassifier().predict(np.zeros((1, 2)))


class TestLogistic:
    def test_separable(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 2))
        y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
        model = LogisticRegression().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_probabilities_in_range(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        model = LogisticRegression().fit(X, y)
        probs = model.predict_proba(X)
        assert (probs > 0).all() and (probs < 1).all()

    def test_probability_calibration_direction(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1000, 1))
        y = (rng.random(1000) < 1 / (1 + np.exp(-2 * X[:, 0]))).astype(int)
        model = LogisticRegression().fit(X, y)
        low = model.predict_proba(np.array([[-2.0]]))[0]
        high = model.predict_proba(np.array([[2.0]]))[0]
        assert low < 0.3 < 0.7 < high

    def test_single_class(self):
        X = np.zeros((5, 2))
        model = LogisticRegression().fit(X, np.ones(5, dtype=int))
        assert (model.predict(X) == 1).all()

    def test_multiclass_rejected(self):
        X = np.zeros((6, 2))
        y = np.array([0, 1, 2, 0, 1, 2])
        with pytest.raises(ValueError):
            LogisticRegression().fit(X, y)

    def test_rejects_negative_l2(self):
        with pytest.raises(ValueError):
            LogisticRegression(l2=-1)

    def test_constant_feature_handled(self):
        X = np.column_stack([np.ones(50), np.arange(50)])
        y = (np.arange(50) > 25).astype(int)
        model = LogisticRegression().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9


class TestMajority:
    def test_predicts_majority(self):
        X = np.zeros((5, 1))
        y = np.array([1, 1, 1, 0, 0])
        model = MajorityClassifier().fit(X, y)
        assert (model.predict(np.zeros((3, 1))) == 1).all()

    def test_weighted_majority(self):
        X = np.zeros((3, 1))
        y = np.array([0, 0, 1])
        model = MajorityClassifier().fit(X, y,
                                         sample_weight=np.array([1, 1, 5.0]))
        assert model.label_ == 1

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            MajorityClassifier().predict(np.zeros((1, 1)))


class TestOversample:
    def test_replication_counts(self):
        X = np.arange(10).reshape(-1, 1)
        y = np.array([0] * 8 + [1] * 2)
        Xo, yo = oversample(X, y, {1: 3})
        assert (yo == 1).sum() == 6
        assert (yo == 0).sum() == 8

    def test_factor_one_noop(self):
        X = np.arange(4).reshape(-1, 1)
        y = np.array([0, 0, 1, 1])
        Xo, yo = oversample(X, y, {1: 1})
        assert len(yo) == 4

    def test_missing_class_ignored(self):
        X = np.arange(4).reshape(-1, 1)
        y = np.zeros(4, dtype=int)
        Xo, yo = oversample(X, y, {7: 3})
        assert len(yo) == 4

    def test_rejects_zero_factor(self):
        with pytest.raises(ValueError):
            oversample(np.zeros((2, 1)), np.array([0, 1]), {1: 0})

    def test_originals_preserved_first(self):
        X = np.arange(6).reshape(-1, 1)
        y = np.array([0, 1, 0, 1, 0, 1])
        Xo, yo = oversample(X, y, {1: 2})
        assert np.array_equal(Xo[:6], X)

    @given(st.integers(2, 5))
    def test_total_size(self, factor):
        X = np.arange(10).reshape(-1, 1)
        y = np.array([0] * 7 + [1] * 3)
        _, yo = oversample(X, y, {1: factor})
        assert len(yo) == 7 + 3 * factor


class TestEval:
    def test_confusion_matrix(self):
        matrix = confusion_matrix(np.array([0, 0, 1]), np.array([0, 1, 1]),
                                  (0, 1))
        assert matrix[0, 0] == 1 and matrix[0, 1] == 1 and matrix[1, 1] == 1

    def test_evaluate_perfect(self):
        report = evaluate(np.array([0, 1, 1]), np.array([0, 1, 1]))
        assert report.accuracy == 1.0
        assert all(c.precision == 1.0 and c.recall == 1.0
                   for c in report.per_class)

    def test_precision_recall_definitions(self):
        y_true = np.array([0, 0, 0, 1, 1])
        y_pred = np.array([0, 0, 1, 1, 0])
        report = evaluate(y_true, y_pred)
        one = report.report_for(1)
        assert one.precision == pytest.approx(1 / 2)
        assert one.recall == pytest.approx(1 / 2)
        assert one.support == 2

    def test_f1(self):
        report = evaluate(np.array([0, 1]), np.array([0, 1]))
        assert report.report_for(1).f1 == 1.0

    def test_report_for_missing(self):
        report = evaluate(np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(KeyError):
            report.report_for(9)

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            evaluate(np.array([0]), np.array([0, 1]))

    def test_empty(self):
        with pytest.raises(ValueError):
            evaluate(np.array([]), np.array([]))

    def test_kfold_partition(self):
        folds = kfold_indices(23, 5, seed=1)
        together = np.sort(np.concatenate(folds))
        assert np.array_equal(together, np.arange(23))

    def test_kfold_validation(self):
        with pytest.raises(ValueError):
            kfold_indices(10, 1)
        with pytest.raises(ValueError):
            kfold_indices(3, 5)

    def test_cross_validate_runs_transform_on_train_only(self, monkeypatch):
        # serial folds: a forked fold's calls.append never reaches here
        monkeypatch.setenv("MPA_JOBS", "1")
        X, y = blob_data()
        calls = []

        def transform(X_train, y_train):
            calls.append(len(y_train))
            return X_train, y_train

        report = cross_validate(MajorityClassifier, X, y, k=5,
                                train_transform=transform)
        assert len(calls) == 5
        assert all(n < len(y) for n in calls)
        assert 0 < report.accuracy <= 1
