"""Figure 9: health-class distributions (2-class and 5-class).

Paper shape: ~64.8% of cases are healthy (<= 1 ticket) in the 2-class
scheme; in the 5-class scheme the excellent class holds ~73% of cases,
with the poor class down at ~2.3% — the skew that motivates oversampling.
"""

import numpy as np

from repro.core.prediction import FIVE_CLASS, TWO_CLASS, health_classes


def run(ctx):
    """Case counts per health class, 2-class and 5-class schemes."""
    y2 = health_classes(ctx.dataset.tickets, TWO_CLASS)
    y5 = health_classes(ctx.dataset.tickets, FIVE_CLASS)
    return {"two_class": np.bincount(y2, minlength=2).tolist(),
            "five_class": np.bincount(y5, minlength=5).tolist()}


def claims(result):
    counts2, counts5 = result["two_class"], result["five_class"]
    total = sum(counts2)
    return {
        "Fig. 9(a): healthy share in (0.55, 0.75) (paper 0.648)":
            0.55 < counts2[0] / total < 0.75,
        "Fig. 9(b): excellent share in (0.65, 0.85) (paper ~0.73)":
            0.65 < counts5[0] / total < 0.85,
        "Fig. 9(b): class counts fall through the middle classes":
            counts5[0] > counts5[1] > counts5[2] > counts5[3],
        "Fig. 9(b): poor share in (0, 0.08) (paper 0.023)":
            0 < counts5[3] / total < 0.08,
        "Fig. 9(b): the very-poor class is non-empty": counts5[4] > 0,
    }
