"""Ablation: ticket count vs alternative health metrics (Section 2.2).

The paper chooses ticket *count* as the health metric because operators
report the alternatives are unreliable: impact labels are subjective and
resolution times lag the actual fix. Our synthesizer plants exactly that
noise, so we can quantify the paper's argument — the count metric's
statistical dependence with the top practices dwarfs MTTR's and the
high-impact count's.
"""

from repro.analysis.mutual_information import binned_mutual_information
from repro.metrics.health_alt import alternative_health_columns

PRACTICES = ("n_change_events", "n_devices", "n_change_types")


def run(ctx):
    """MI(practice; health) for the ticket count and its alternatives."""
    dataset = ctx.dataset
    alt = alternative_health_columns(dataset, ctx.workspace.corpus().tickets)
    outcomes = {
        "ticket count": dataset.tickets.astype(float),
        "MTTR": alt.mttr_minutes,
        "high-impact count": alt.high_impact.astype(float),
        "alarm count": alt.alarm_count.astype(float),
    }
    return {outcome_name: {
                practice: float(binned_mutual_information(
                    dataset.column(practice), outcome))
                for practice in PRACTICES}
            for outcome_name, outcome in outcomes.items()}


def claims(result):
    count = result["ticket count"]
    return {
        # MTTR is resolution-lag noise: clearly weaker than the count
        "§2.2: MTTR depends less on practices than ticket count": all(
            result["MTTR"][p] < count[p] for p in PRACTICES),
        # high-impact labels are subjective subsamples: weaker too
        "§2.2: high-impact count depends no more than ticket count": all(
            result["high-impact count"][p] <= count[p] + 0.01
            for p in PRACTICES),
        # alarm count is a ~fixed fraction of the count: close to it
        "§2.2: alarm count keeps > half the ticket count's MI": all(
            result["alarm count"][p] > 0.5 * count[p] for p in PRACTICES),
    }
