"""Figure 8: precision/recall of the 5-class models — DT, DT+AdaBoost,
DT+oversampling, DT+AdaBoost+oversampling.

Paper shape: the plain tree overfits the majority (excellent) class and
scores ~zero precision/recall on the intermediate classes; AdaBoost helps
a little; oversampling substantially lifts the intermediate classes at a
small cost to the extreme classes' recall; AB+OS is best overall.
"""

from repro.core.prediction import FIVE_CLASS, evaluate_model

VARIANTS = ("dt", "dt+ab", "dt+os", "dt+ab+os")


def _report_summary(report):
    per_class = {}
    for label in report.labels:
        cr = report.report_for(label)
        per_class[str(int(label))] = [float(cr.precision),
                                      float(cr.recall)]
    return {"accuracy": float(report.accuracy),
            "precision_recall": per_class}


def run(ctx):
    """Accuracy and per-class precision/recall per 5-class variant."""
    return {variant: _report_summary(
                evaluate_model(ctx.dataset, FIVE_CLASS, variant, seed=1))
            for variant in VARIANTS}


def _recall(row, label):
    return row["precision_recall"][str(label)][1]


def _intermediate_recall(row):
    return sum(_recall(row, c) for c in (1, 2, 3)
               if str(c) in row["precision_recall"])


def claims(result):
    plain = result["dt"]
    sampled = result["dt+os"]
    combined = result["dt+ab+os"]
    return {
        # plain DT: strong on the majority class, weak on intermediates
        "Fig. 8: plain DT recalls > 0.8 of the excellent class":
            _recall(plain, 0) > 0.8,
        "Fig. 8: plain DT sums < 1.5 recall over intermediate classes":
            _intermediate_recall(plain) < 1.5,
        "Fig. 8: oversampling lifts intermediate recall":
            _intermediate_recall(sampled) > _intermediate_recall(plain),
        # ... trading some recall on the majority class
        "Fig. 8: oversampling costs some excellent-class recall":
            _recall(sampled, 0) <= _recall(plain, 0),
        "Fig. 8: AB+OS keeps the intermediate-recall gain":
            _intermediate_recall(combined) > _intermediate_recall(plain),
        "Fig. 8: every variant beats chance (accuracy > 0.4)": all(
            row["accuracy"] > 0.4 for row in result.values()),
    }
