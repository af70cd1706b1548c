"""Counterfactual what-if engine: planted-truth grade + attribution.

Grades :mod:`repro.analysis.causal` against the synthesizer's planted
truth on the shared benchmark workspace — every planted causal practice
must be attributed (at most one miss), no planted null may be — and
runs the worst-network root-cause ranker end to end. The ``run(ctx)``
protocol entry additionally times one full scorecard pass so the
baseline catches latency regressions in the matching/bias-correction
path.
"""

from repro.analysis.causal import (
    detect_surge,
    pick_worst_network,
    planted_candidates,
    rank_causes,
)
from repro.analysis.selfcheck import score_counterfactual_truth


def run(ctx):
    """Counterfactual scorecard plus the worst network's top-5 causes."""
    card = score_counterfactual_truth(ctx.dataset)
    assert len(card.missed) <= card.max_missed
    worst = pick_worst_network(ctx.dataset)
    window = detect_surge(ctx.dataset, worst)
    report = rank_causes(ctx.dataset, worst, months=list(window.months),
                         candidates=planted_candidates())
    assert report.window.network_id == worst
    assert len(report.scores) == len(planted_candidates())
    # ranking is total and deterministic: excess desc, then name
    keys = [(-s.excess_tickets, s.practice) for s in report.scores]
    assert keys == sorted(keys)
    return {
        "scorecard": {
            "n_planted": int(card.n_planted),
            "n_attributed": int(card.n_attributed),
            "n_false_alarms": int(card.n_false_alarms),
            "missed": list(card.missed),
            "passed": bool(card.passed),
        },
        "worst_network": worst,
        "window_months": [int(m) for m in window.months],
        "causes": [
            {"practice": s.practice,
             "excess_tickets": round(float(s.excess_tickets), 6),
             "p_value": round(float(s.p_value), 12),
             "attributed": bool(s.attributed)}
            for s in report.scores[:5]
        ],
    }


def claims(result):
    card = result["scorecard"]
    return {
        "what-if: the synthesizer plants causal practices":
            card["n_planted"] > 0,
        "what-if: no planted null is attributed":
            card["n_false_alarms"] == 0,
        "what-if: the planted-truth scorecard passes": card["passed"],
    }
