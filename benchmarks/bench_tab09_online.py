"""Table 9: online (rolling) prediction accuracy for M in {1, 3, 6, 9}.

Paper shape: the 2-class model holds a consistently high accuracy (~89%)
regardless of history length; the 5-class model improves with more
history (73.4% at M=1 to 77.9% at M=9) with diminishing returns; 2-class
accuracy always exceeds 5-class accuracy.
"""

import os

from repro.core.online import online_prediction_accuracy
from repro.core.prediction import FIVE_CLASS, TWO_CLASS

HISTORIES = (1, 3, 6, 9)


def run(ctx):
    """``[M, months evaluated, mean accuracy]`` per history length M,
    5-class then 2-class."""
    months = sorted(set(ctx.dataset.case_month_indices))
    variant = os.environ.get("MPA_ONLINE_VARIANT", "dt+ab+os")
    rows = []
    for history in HISTORIES:
        if history >= len(months):
            continue
        for scheme in (FIVE_CLASS, TWO_CLASS):
            r = online_prediction_accuracy(ctx.dataset, history,
                                           scheme=scheme, variant=variant)
            rows.append([int(r.history_months), len(r.evaluated_months),
                         float(r.mean_accuracy)])
    return rows


def claims(result):
    # (five, two) per history length; each row is [M, n_months, accuracy]
    pairs = [(result[i], result[i + 1]) for i in range(0, len(result), 2)]
    # longer history never hurts much; compare only history lengths that
    # evaluated enough months to be stable (the largest M at small scales
    # predicts a single month, which is pure variance)
    stable = [(five, two) for five, two in pairs if five[1] >= 3]
    return {
        # 2-class prediction is always the easier problem
        "Table 9: 2-class accuracy >= 5-class at every M": all(
            two[2] >= five[2] for five, two in pairs),
        # paper bands: 2-class ~0.88-0.90, 5-class ~0.73-0.78; generous
        # brackets that still catch regressions
        "Table 9: 2-class accuracy > 0.6 at every M": all(
            two[2] > 0.6 for _five, two in pairs),
        "Table 9: 5-class accuracy > 0.45 at every M": all(
            five[2] > 0.45 for five, _two in pairs),
        "Table 9: 5-class accuracy holds up with longer history (- 0.05)":
            len(stable) < 2
            or stable[-1][0][2] >= stable[0][0][2] - 0.05,
    }
