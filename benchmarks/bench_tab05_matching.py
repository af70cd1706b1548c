"""Table 5: propensity-score matching for treatment = number of change
events.

Paper shape: nearest-neighbour propensity matching pairs nearly all
treated cases at 1:2 (1742 of 1745, vs at most 17 with exact matching);
matching with replacement reuses untreated cases (matched-untreated count
below the pair count); the matched propensity scores balance (abs std
diff < 0.25, variance ratio in [0.5, 2]).
"""

from repro.analysis.qed.experiment import run_causal_analysis


def run(ctx):
    """Population, pair counts and propensity balance of the 1:2 match."""
    result = run_causal_analysis(ctx.dataset,
                                 "n_change_events").result_for("1:2")
    return {
        "n_treated": int(result.n_treated),
        "n_untreated": int(result.n_untreated),
        "n_pairs": int(result.n_pairs),
        "n_untreated_matched": int(result.n_untreated_matched),
        "propensity_abs_std_diff":
            float(result.balance.propensity.abs_std_diff_of_means),
        "propensity_variance_ratio":
            float(result.balance.propensity.ratio_of_variances),
    }


def claims(result):
    return {
        "Table 5: >= 85% of treated cases matched (paper 99.8%)":
            result["n_pairs"] >= 0.85 * result["n_treated"],
        "Table 5: matching with replacement reuses untreated cases":
            result["n_untreated_matched"] < result["n_pairs"],
        "Table 5: propensity abs std diff of means < 0.25":
            result["propensity_abs_std_diff"] < 0.25,
        "Table 5: propensity variance ratio in [0.5, 2]":
            0.5 <= result["propensity_variance_ratio"] <= 2.0,
        # bin populations shrink up the heavy tail (paper: 8259 -> 296)
        "Table 5: bin 1 holds more cases than bin 2":
            result["n_untreated"] > result["n_treated"],
    }
