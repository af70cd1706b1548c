"""Figure 6: tickets vs the top-two MI practices (devices, change events).

Paper shape: both show a strong, visually obvious positive dependence.
"""

from repro.util.binning import equal_width_bins
from repro.util.stats import pearson_correlation


def run(ctx):
    """Correlation with tickets and per-bin mean tickets for the top two
    MI practices."""
    dataset = ctx.dataset
    out = {}
    for metric in ("n_devices", "n_change_events"):
        column = dataset.column(metric)
        spec = equal_width_bins(column, n_bins=5)
        assignments = spec.assign_many(column)
        groups = [dataset.tickets[assignments == b] for b in range(5)]
        corr = pearson_correlation(column.tolist(),
                                   dataset.tickets.tolist())
        populated = [g.mean() for g in groups if len(g) >= 5]
        assert populated[-1] > 1.3 * populated[0], metric
        out[metric] = {"corr": float(corr),
                       "bin_mean_tickets": [float(g.mean()) if len(g)
                                            else None for g in groups]}
    return out


def claims(result):
    return {"Fig. 6: devices and change events correlate with tickets "
            "(> 0.25)": all(row["corr"] > 0.25 for row in result.values())}
