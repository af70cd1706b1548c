"""Ablation: skew-handling knobs — oversampling factors and AdaBoost
rounds (Section 6.1's design choices; paper uses 15 rounds and the
2x/3x replication factors).
"""

from repro.core.prediction import (
    FIVE_CLASS,
    fit_feature_bins,
    health_classes,
)
from repro.ml.boosting import AdaBoostClassifier
from repro.ml.model_eval import cross_validate
from repro.ml.sampling import oversample
from repro.ml.tree import DecisionTreeClassifier


def _evaluate(X, y, factors, n_rounds):
    def transform(X_train, y_train):
        if not factors:
            return X_train, y_train
        return oversample(X_train, y_train, factors)

    def factory():
        if n_rounds == 0:
            return DecisionTreeClassifier()
        return AdaBoostClassifier(n_rounds=n_rounds)
    return cross_validate(factory, X, y, k=5, seed=2,
                          train_transform=transform)


def intermediate_recall(report):
    return sum(report.report_for(c).recall for c in (1, 2, 3)
               if c in report.labels)


def run(ctx):
    """Accuracy and mid-class recall per oversampling/boosting setting."""
    bins = fit_feature_bins(ctx.dataset.values)
    X = bins.transform(ctx.dataset.values)
    y = health_classes(ctx.dataset.tickets, FIVE_CLASS)
    paper_factors = {1: 3, 2: 3, 3: 2}
    configs = {
        "no OS, no AB": ({}, 0),
        "paper OS only": (paper_factors, 0),
        "aggressive OS (x5)": ({1: 5, 2: 5, 3: 5}, 0),
        "AB 5 rounds": ({}, 5),
        "AB 15 rounds (paper)": ({}, 15),
        "OS + AB 15 (paper)": (paper_factors, 15),
    }
    out = {}
    for name, (factors, rounds) in configs.items():
        report = _evaluate(X, y, factors, rounds)
        out[name] = {"accuracy": float(report.accuracy),
                     "intermediate_recall":
                         float(intermediate_recall(report))}
    return out


def claims(result):
    plain = result["no OS, no AB"]["intermediate_recall"]
    return {
        "§6.1: oversampling lifts intermediate recall over the plain "
        "tree": result["paper OS only"]["intermediate_recall"] > plain,
        "§6.1: OS + AB 15 keeps the intermediate-recall lift":
            result["OS + AB 15 (paper)"]["intermediate_recall"] > plain,
        "§6.1: no skew setting drops to accuracy <= 0.35": all(
            row["accuracy"] > 0.35 for row in result.values()),
    }
