"""Section 6.1: the 2-class organization model.

Paper numbers: pruned decision tree 91.6% (5-fold CV) vs 64.8% for the
majority-class predictor; DT precision/recall 0.92/0.98 on healthy and
0.62/0.31 on unhealthy; SVMs performed poorly ("worse than a simple
majority classifier" in the paper; below the DT in our reproduction —
see EXPERIMENTS.md for the divergence note).
"""

from repro.core.prediction import TWO_CLASS, evaluate_model

VARIANTS = ("dt", "majority", "svm")


def _report_summary(report):
    per_class = {}
    for label in report.labels:
        cr = report.report_for(label)
        per_class[str(int(label))] = [float(cr.precision),
                                      float(cr.recall)]
    return {"accuracy": float(report.accuracy),
            "precision_recall": per_class}


def run(ctx):
    """Accuracy and per-class precision/recall per 2-class model."""
    return {variant: _report_summary(
                evaluate_model(ctx.dataset, TWO_CLASS, variant, seed=1))
            for variant in VARIANTS}


def _recall(row, label):
    return row["precision_recall"][str(label)][1]


def claims(result):
    dt = result["dt"]
    majority = result["majority"]
    return {
        "§6.1: the tree beats the majority baseline by > 5 points":
            dt["accuracy"] > majority["accuracy"] + 0.05,
        "§6.1: the majority classifier never recalls unhealthy":
            _recall(majority, 1) == 0.0,
        # reflects the skew (paper: 0.98 vs 0.31 recall)
        "§6.1: the tree recalls healthy better than unhealthy":
            _recall(dt, 0) > _recall(dt, 1),
        # the unhealthy pocket is an axis-aligned corner in practice space
        "§6.1: the tree is no worse than the linear SVM (- 0.01)":
            dt["accuracy"] >= result["svm"]["accuracy"] - 0.01,
    }
