"""Figure 4: tickets vs individual practices — linear, monotonic, and
non-monotonic relationships.

Paper shape: number of L2 protocols relates ~linearly to tickets, number
of models monotonically, fraction-of-events-with-interface-change
non-monotonically, and number of roles monotonically (Fig 4(a-d)).
"""

import numpy as np

from repro.util.binning import equal_width_bins


def bin_means(dataset, metric: str, n_bins: int = 4):
    column = dataset.column(metric)
    spec = equal_width_bins(column, n_bins=n_bins)
    assignments = spec.assign_many(column)
    groups = [dataset.tickets[assignments == b] for b in range(n_bins)]
    means = [g.mean() if len(g) else np.nan for g in groups]
    return groups, means


def run(ctx):
    """Mean tickets per equal-width bin of four practices."""
    results = {}
    for metric in ("n_l2_protocols", "n_models", "frac_events_interface",
                   "n_roles"):
        _groups, means = bin_means(ctx.dataset, metric)
        results[metric] = [None if np.isnan(m) else float(m) for m in means]
    return results


def claims(result):
    def populated(metric):
        return [m for m in result[metric] if m is not None]
    interface = populated("frac_events_interface")
    return {
        # higher bins mean more tickets (monotone-ish: compare first vs
        # last populated bin)
        "Fig. 4: models, roles and L2 protocols rise with tickets": all(
            populated(m)[-1] > populated(m)[0]
            for m in ("n_models", "n_roles", "n_l2_protocols")),
        # planted non-monotonic: the relationship rises from the low end
        "Fig. 4(c): interface-change fraction does not peak at bin 1":
            int(np.argmax(interface)) not in (0,),
    }
