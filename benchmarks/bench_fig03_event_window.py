"""Figure 3: impact of the change-grouping threshold delta on event counts.

Paper shape: per-network-per-month change-event counts fall monotonically
as delta grows from NA (no grouping) through 1, 2, 5, 10, 15, 30 minutes,
with the paper adopting delta = 5.
"""

import numpy as np

from repro.metrics.events import FIGURE3_DELTAS, group_change_events
from repro.util.timeutils import MINUTES_PER_MONTH


def run(ctx):
    """Change events per network-month for every grouping delta."""
    per_delta: dict = {delta: [] for delta in FIGURE3_DELTAS}
    for network_id, records in ctx.changes.items():
        if not records:
            continue
        by_month: dict[int, list] = {}
        for record in records:
            by_month.setdefault(record.timestamp // MINUTES_PER_MONTH,
                                []).append(record)
        for month_records in by_month.values():
            for delta in FIGURE3_DELTAS:
                per_delta[delta].append(
                    len(group_change_events(month_records, delta))
                )
    return {_label(delta): [int(count) for count in counts]
            for delta, counts in per_delta.items()}


def _label(delta):
    return "NA" if delta is None else str(delta)


def claims(result):
    medians = [np.percentile(result[_label(delta)], 50)
               for delta in FIGURE3_DELTAS]
    ungrouped = np.mean(result["NA"])
    return {
        # grouping can only merge
        "Fig. 3: median events per network-month fall as delta grows":
            all(medians[i] >= medians[i + 1]
                for i in range(len(medians) - 1)),
        "Fig. 3: no grouping (NA) yields more events than delta=5":
            ungrouped > np.mean(result["5"]),
        # the curve must actually move (events are multi-device)
        "Fig. 3: NA exceeds delta=30 by > 10%":
            ungrouped > 1.1 * np.mean(result["30"]),
    }
