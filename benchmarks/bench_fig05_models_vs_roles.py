"""Figure 5: number of models vs number of roles.

Paper shape: the two practices are related — networks with more roles use
more models (which is why causal analysis must account for confounding
between practices).
"""

from repro.util.stats import pearson_correlation


def run(ctx):
    """Pearson correlation and mean model count per role count."""
    roles = ctx.dataset.column("n_roles")
    models = ctx.dataset.column("n_models")
    groups = {r: models[roles == r]
              for r in sorted(set(int(v) for v in roles))}
    corr = pearson_correlation(roles.tolist(), models.tolist())
    means = [g.mean() for g in groups.values() if len(g) >= 5]
    assert means[-1] > means[0]
    return {"corr": float(corr),
            "mean_models_by_roles": {str(r): float(g.mean())
                                     for r, g in groups.items()
                                     if len(g)}}


def claims(result):
    return {"Fig. 5: models and roles correlate (Pearson > 0.3)":
            result["corr"] > 0.3}
