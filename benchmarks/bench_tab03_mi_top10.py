"""Table 3: top-10 practices by average monthly MI with network health.

Paper shape: change-volume metrics (devices, change events, change types)
dominate the top of the ranking; both design and operational practices
appear; fraction-of-events-with-middlebox-change does NOT make the top 10
despite operator opinion (paper: ranked 23 of 28).
"""

from repro.analysis.dependence import rank_practices_by_mi
from repro.metrics.catalog import get_metric


VOLUME = {"n_change_events", "n_config_changes", "n_devices_changed",
          "n_change_types", "n_devices"}


def run(ctx):
    """The top-10 practices by average monthly MI."""
    results = rank_practices_by_mi(ctx.dataset)
    if ctx.large_scale:
        ranked = [r.practice for r in results]
        # the paper's middlebox surprise needs statistical power
        assert "frac_events_mbox" not in set(ranked[:10])
        # ranking must be strictly dominated by the volume metrics
        assert ranked[0] in VOLUME
    return [[r.practice, float(r.avg_monthly_mi)] for r in results[:10]]


def claims(result):
    top10 = {practice for practice, _mi in result}
    return {
        # planted causal volume metrics top the ranking
        "Table 3: >= 3 change-volume metrics in the top 10":
            len(VOLUME & top10) >= 3,
        "Table 3: design and operational practices both in the top 10":
            {get_metric(p).category for p in top10}
            == {"design", "operational"},
        "Table 3: top MI in (0.02, 1.0) (paper 0.198-0.388)":
            0.02 < result[0][1] < 1.0,
    }
