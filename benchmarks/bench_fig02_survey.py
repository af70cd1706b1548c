"""Figure 2: operator survey — impact opinions for eleven practices.

Paper shape: clear consensus (high impact) only for "number of change
events"; near-even low/high splits for network size, models, and
inter-device complexity; ACL-change fraction skews low-impact while
middlebox-change fraction skews high-impact; every practice draws a few
"not sure" responses.
"""

from repro.synthesis.survey import (
    SURVEYED_PRACTICES,
    synthesize_survey,
    tally,
)
from repro.types import OPINION_LEVELS


def run(ctx):
    """Figure 2 survey tallies: responses per opinion level per practice."""
    return {practice: {level: int(counts[level])
                       for level in OPINION_LEVELS}
            for practice, counts in tally(synthesize_survey(seed=7)).items()}


def claims(result):
    events = result["no_of_change_events"]
    acl = result["frac_events_acl_change"]
    mbox = result["frac_events_mbox_change"]
    return {
        # consensus clearest on number of change events: a clear
        # majority, and the highest high-impact count of all practices
        "Fig. 2: a majority rates change events high impact":
            events["high_impact"] > 51 // 2,
        "Fig. 2: change events draw the most high-impact votes": all(
            result[p]["high_impact"] <= events["high_impact"]
            for p in SURVEYED_PRACTICES if p != "no_of_change_events"),
        "Fig. 2: size/models/complexity split low vs high (< 15 apart)":
            all(abs(result[p]["low_impact"] - result[p]["high_impact"]) < 15
                for p in ("no_of_devices", "no_of_models",
                          "inter_device_complexity")),
        "Fig. 2: ACL changes believed low impact":
            acl["low_impact"] > acl["high_impact"],
        "Fig. 2: middlebox changes believed high impact":
            mbox["high_impact"] > mbox["low_impact"],
        "Fig. 2: some operators are unsure": sum(
            result[p]["not_sure"] for p in SURVEYED_PRACTICES) > 0,
    }
