"""Extension: operator opinion vs measured impact (the abstract's claim).

"Our causal analysis uncovers some high impact practices that operators
thought had a low impact on network health." This bench joins the Figure
2 survey with the Table 3 MI ranking and Table 7 causal verdicts and
asserts the two headline contrasts:

* the ACL-change fraction: operators call it low impact; measurement
  finds high dependence (and causality at sufficient scale);
* the middlebox-change fraction: operators call it high impact;
  measurement finds weak dependence.
"""

from repro.analysis.opinion_gap import opinion_gaps
from repro.synthesis.survey import synthesize_survey


def run(ctx):
    """Survey opinion, MI rank and 1:2 QED verdict per surveyed practice."""
    gaps = opinion_gaps(ctx.dataset, synthesize_survey(seed=7), run_qed=True)
    if ctx.large_scale:
        by_practice = {gap.practice: gap for gap in gaps}
        acl = by_practice["frac_events_acl_change"]
        mbox = by_practice["frac_events_mbox_change"]
        # ... and causal at scale (the abstract's headline)
        assert acl.causal_verdict == "causal"
        assert acl.misjudged or acl.operators_think_high is False
        # middlebox fraction is not a top-third practice
        assert not mbox.measured_high or mbox.causal_verdict != "causal"
    return {gap.practice: {"mean_opinion": float(gap.mean_opinion),
                           "mi_rank": int(gap.mi_rank),
                           "causal_verdict": gap.causal_verdict,
                           "misjudged": bool(gap.misjudged)}
            for gap in gaps}


def claims(result):
    acl = result["frac_events_acl_change"]
    mbox = result["frac_events_mbox_change"]
    return {
        "abstract: operators rate ACL changes below middlebox changes":
            acl["mean_opinion"] < mbox["mean_opinion"],
        "abstract: measured MI ranks ACL fraction above middlebox "
        "fraction": acl["mi_rank"] < mbox["mi_rank"],
        "abstract: at least one practice is misjudged by operators": any(
            gap["misjudged"] for gap in result.values()),
    }
