"""Statistical self-validation: invariants + planted-truth scorecard.

Runs the full :mod:`repro.analysis.selfcheck` harness against the shared
benchmark workspace (the same dataset every other bench reads) and
asserts the acceptance bar the subsystem promises: every estimator
invariant holds, every planted causal practice is recovered with the
correct sign, and no planted-null practice survives significance.
"""

from repro.analysis.selfcheck import run_selfcheck


def run(ctx):
    """Invariant verdicts and planted-truth scorecard counts."""
    report = run_selfcheck(ctx.dataset, seed=0)
    assert report.scorecard.missed == []
    return {
        "n_invariant_failures": int(report.n_invariant_failures),
        "invariants": {r.name: bool(r.passed)
                       for r in report.invariants},
        "scorecard": {
            "n_planted": int(report.scorecard.n_planted),
            "n_recovered": int(report.scorecard.n_recovered),
            "n_spurious": int(report.scorecard.n_spurious),
        },
        "passed": bool(report.passed),
    }


def claims(result):
    card = result["scorecard"]
    return {
        "selfcheck: every estimator invariant holds":
            result["n_invariant_failures"] == 0,
        "selfcheck: every planted causal practice is recovered":
            card["n_recovered"] == card["n_planted"],
        "selfcheck: no planted null survives significance":
            card["n_spurious"] == 0,
        "selfcheck: the harness passes": result["passed"],
    }
