"""Figure 13: characterization of change events (Appendix A.2).

Paper shape: (a) most change events touch only one or two devices on
average, with a tail of larger events; (b) the fraction of events
touching a middlebox varies widely across networks.
"""

import numpy as np

from repro.core.characterize import characterize_operational
from repro.synthesis.organization import SCALES


def run(ctx):
    """10th/50th/90th percentiles of event size and middlebox share."""
    n_months = SCALES[ctx.scale].n_months
    chars = characterize_operational(ctx.dataset, ctx.changes, n_months)

    dpe = chars.mean_devices_per_event[chars.mean_devices_per_event > 0]
    # (a) typical events are small ...
    assert np.median(dpe) < 3.0
    # ... with a real tail (network-wide sweeps)
    assert dpe.max() > 2 * np.median(dpe)

    return {
        "mean_devices_per_event": [float(q) for q in np.percentile(
            chars.mean_devices_per_event, (10, 50, 90))],
        "frac_events_mbox": [float(q) for q in np.percentile(
            chars.frac_events_mbox, (10, 50, 90))],
    }


def claims(result):
    p10, _p50, p90 = result["frac_events_mbox"]
    return {"Fig. 13(b): middlebox-event fraction is diverse (p90 - p10 "
            "> 0.2)": p90 - p10 > 0.2}
