"""Figure 7: distribution equivalence of confounders after matching.

Paper shape: for matched treated vs matched untreated cases, confounder
distributions (e.g. number of devices, number of VLANs) visually overlap,
and the numeric balance measures confirm it.
"""

import numpy as np

from repro.analysis.qed.experiment import (
    build_confounders,
)
from repro.analysis.qed.matching import nearest_neighbor_match
from repro.analysis.qed.propensity import propensity_scores
from repro.analysis.qed.treatment import TreatmentBinning

TREATMENT = "n_change_events"


def run(ctx):
    """Matched treated vs untreated confounder medians (devices, VLANs)."""
    dataset = ctx.dataset
    names, confounders = build_confounders(dataset, TREATMENT)
    binning = TreatmentBinning.fit(TREATMENT, dataset.column(TREATMENT), 5)
    point = binning.comparison_points()[0]
    untreated_idx, treated_idx = binning.split(point)
    s_u, s_t = propensity_scores(confounders[untreated_idx],
                                 confounders[treated_idx], l2=0.1)
    def logit(s):
        clipped = np.clip(s, 1e-9, 1 - 1e-9)
        return np.log(clipped / (1 - clipped))
    pairs = nearest_neighbor_match(logit(s_u), logit(s_t),
                                   untreated_idx, treated_idx)
    out = {"n_pairs": int(pairs.n_pairs)}
    for metric in ("n_devices", "n_vlans"):
        j = names.index(metric)
        treated = np.expm1(confounders[pairs.treated_indices, j])
        untreated = np.expm1(confounders[pairs.untreated_indices, j])
        out[metric] = {"median_treated": float(np.median(treated)),
                       "median_untreated": float(np.median(untreated))}
    return out


def claims(result):
    def balanced(row):
        med_t, med_u = row["median_treated"], row["median_untreated"]
        return abs(med_t - med_u) <= 0.35 * max(med_t, med_u, 1.0)
    # visual equivalence, numerically: medians within 35%
    return {"Fig. 7: matched devices/VLANs medians within 35%": all(
        balanced(result[metric]) for metric in ("n_devices", "n_vlans"))}
