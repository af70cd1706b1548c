"""Figure 10: structure of the learned decision trees.

Paper shape: the root of the tree is the practice with the strongest
statistical dependence (number of devices in the paper's data; one of the
top-MI volume metrics in ours), and the second level mixes in practices
that are NOT in the global top-10 — showing that the importance of some
practices depends on others.
"""

from repro.analysis.dependence import rank_practices_by_mi
from repro.core.prediction import FIVE_CLASS, TWO_CLASS, OrganizationModel


def run(ctx):
    """Root metric, depth and size of the learned 2- and 5-class trees."""
    models = {
        "two_class": OrganizationModel(scheme=TWO_CLASS,
                                       variant="dt").fit(ctx.dataset),
        "five_class": OrganizationModel(scheme=FIVE_CLASS,
                                        variant="dt").fit(ctx.dataset),
    }
    ranked = [r.practice for r in rank_practices_by_mi(ctx.dataset)]
    out = {}
    for name, model in models.items():
        root = model.decision_tree.root_
        root_metric = (None if root.is_leaf
                       else ctx.dataset.names[root.feature])
        if root_metric is not None:
            # trees are built by MI, so the root is a strongly dependent
            # practice (paper: the top-MI practice)
            assert root_metric in ranked[:10], root_metric
        out[name] = {
            "root_metric": root_metric,
            "depth": int(root.depth()),
            "n_nodes": int(root.n_nodes()),
        }
    return out


def claims(result):
    return {"Fig. 10: both trees split at the root": all(
        tree["root_metric"] is not None for tree in result.values())}
