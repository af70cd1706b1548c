"""Figure 12: characterization of operational practices (Appendix A.2).

Paper shape: (a) monthly change volume correlates with network size
(Pearson ~0.64); (b) under half a network's devices change in a typical
month, but most change within a year; (c) interface changes are the most
common type, with pool/ACL/user/router following; (d) automation levels
are diverse and only weakly correlated with change volume (~0.23);
(e) change-event counts are long-tailed across networks.
"""

import numpy as np

from repro.core.characterize import (
    automation_by_type,
    characterize_operational,
)
from repro.synthesis.organization import SCALES


def run(ctx):
    """Operational-practice summary: correlations, churn medians, change
    type mix and automation rate per change type."""
    n_months = SCALES[ctx.scale].n_months
    chars = characterize_operational(ctx.dataset, ctx.changes, n_months)

    # (b) router changes rare for the median network but notable in a
    # few (paper: ~5% of changes for the median network, > 0.5 in ~5% of
    # networks — our per-change router fractions are diluted by sweep
    # events touching many non-router devices, so the tail sits lower)
    router = chars.type_fractions["router"]
    assert (router > 3 * max(np.median(router), 0.02)).mean() > 0.0
    # (d) automation levels are diverse
    assert np.percentile(chars.frac_changes_automated, 90) > 0.5
    assert np.percentile(chars.frac_changes_automated, 10) < 0.4
    # (e) events long-tailed
    events = chars.avg_events_per_month
    assert np.percentile(events, 90) > 3 * max(np.percentile(events, 10), 0.5)

    return {
        "size_change_correlation": float(chars.size_change_correlation),
        "automation_change_correlation":
            float(chars.automation_change_correlation),
        "median_frac_devices_changed_month":
            float(np.median(chars.frac_devices_changed_month)),
        "median_frac_devices_changed_year":
            float(np.median(chars.frac_devices_changed_year)),
        "median_type_fractions": {
            stype: float(np.median(fracs))
            for stype, fracs in chars.type_fractions.items()},
        "automation_by_type": {
            stype: float(rate)
            for stype, rate in automation_by_type(ctx.changes).items()},
    }


def claims(result):
    medians = result["median_type_fractions"]
    rates = result["automation_by_type"]
    automated_ranked = sorted(rates, key=rates.get, reverse=True)
    return {
        "Fig. 12(a): change volume tracks network size (corr > 0.3)":
            result["size_change_correlation"] > 0.3,
        "Fig. 12(b): monthly device churn below yearly churn":
            result["median_frac_devices_changed_month"]
            < result["median_frac_devices_changed_year"],
        "Fig. 12(b): most devices change within a year":
            result["median_frac_devices_changed_year"] > 0.5,
        "Fig. 12(c): interface changes are the most common type":
            medians["interface"] == max(medians.values()),
        "Fig. 12(c): router changes rare for the median network":
            medians["router"] < 0.35,
        "Fig. 12(d): automation only weakly tied to change volume":
            abs(result["automation_change_correlation"]) < 0.5,
        "App. A.2: sflow/qos/pool among the six most automated types":
            bool(set(automated_ranked[:6]) & {"sflow", "qos", "pool"}),
    }
