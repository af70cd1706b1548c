"""Table 2: dataset sizes.

Paper values: 17 months, 850+ networks, O(100) services, O(10K) devices,
O(100K) config snapshots (~450 GB), O(10K) tickets. The synthetic corpus
reproduces the *relative* magnitudes at every scale and the absolute ones
at ``MPA_SCALE=paper``.
"""

from repro.synthesis.organization import SCALES


def run(ctx):
    """The Table 2 size summary of the session corpus."""
    summary = ctx.workspace.summary()
    spec = SCALES[ctx.workspace.scale]
    assert summary["months"] == spec.n_months
    assert summary["networks"] == spec.n_networks
    assert summary["services"] >= spec.n_networks * 0.8
    if ctx.workspace.scale == "paper":
        assert summary["networks"] >= 850
        assert summary["devices"] >= 5_000
        assert summary["config_snapshots"] >= 100_000
        assert summary["tickets"] >= 10_000
    return {key: value if isinstance(value, str) else int(value)
            for key, value in summary.items()}


def claims(result):
    return {
        "Table 2: O(10) devices per network":
            result["devices"] > 5 * result["networks"],
        "Table 2: O(10) config snapshots per device":
            result["config_snapshots"] > 5 * result["devices"],
        "Table 2: more tickets than networks":
            result["tickets"] > result["networks"],
    }
