"""Table 8: causal analysis for the upper bins (2:3, 3:4, 4:5).

Paper shape: over one-third of upper-bin matchings are imbalanced, and
most of the rest have large p-values — heavy-tailed practice metrics
leave too few cases in the upper bins (e.g. 81% of cases fall in bin 1
when the treatment is number of devices).
"""

from repro.analysis.qed.experiment import run_causal_analysis

UPPER_POINTS = ("2:3", "3:4", "4:5")


def run(ctx):
    """Verdict per (top-10 practice, upper comparison point) cell."""
    cells = {}
    for practice in ctx.top10:
        experiment = run_causal_analysis(ctx.dataset, practice)
        for label in UPPER_POINTS:
            key = f"{experiment.practice}@{label}"
            try:
                result = experiment.result_for(label)
            except KeyError:
                cells[key] = "skipped"
                continue
            if result.imbalanced:
                cells[key] = "imbalanced"
            elif result.sign.significant:
                cells[key] = "causal"
            else:
                cells[key] = "not significant"
        # heavy tails: bin-1 dominates for the count-style practices
        if experiment.practice == "n_devices":
            try:
                low = experiment.result_for("1:2")
            except KeyError:
                continue
            share = low.n_untreated / ctx.dataset.n_cases
            assert share > 0.4
    return cells


def claims(result):
    practices = {key.split("@")[0] for key in result}
    # skipped (too few cases) and imbalanced cells are no conclusion
    inconclusive = sum(verdict != "causal" for verdict in result.values())
    return {
        "Table 8: every practice has a verdict at every upper point":
            len(result) == len(practices) * len(UPPER_POINTS),
        "Table 8: at least half the upper-bin cells are inconclusive":
            inconclusive >= len(result) * 0.5,
    }
