"""Extension: randomized-experiment validation of the QED.

The paper (Section 5.2) could not run true randomized experiments on
production networks; with a synthetic organization we can. This bench
runs paired randomized experiments (each network with and without an
intervention) and checks that the oracle agrees with the planted ground
truth the observational QED is asked to recover:

* intervening on change events / VLANs / devices raises tickets
  (planted-causal practices),
* skewing changes toward middlebox (LB pool) work does NOT raise tickets
  (the paper's "middlebox changes are low impact" finding).
"""

from repro.analysis.validation import (
    add_vlans,
    boost_acl_changes,
    boost_mbox_changes,
    run_randomized_experiment,
    scale_devices,
    scale_event_rate,
)

EXPERIMENTS = (
    ("3x change events", scale_event_rate(3.0)),
    ("+60 VLANs", add_vlans(60)),
    ("2x devices", scale_devices(2.0)),
    ("ACL-heavy change mix", boost_acl_changes(6.0)),
    ("middlebox-heavy change mix", boost_mbox_changes(6.0)),
    ("no-op (negative control)", lambda profile: profile),
)


def run(ctx):
    """Control/treated mean tickets, effect and p-value per intervention."""
    out = {}
    for name, intervention in EXPERIMENTS:
        r = run_randomized_experiment(intervention, name=name,
                                      n_networks=60, n_months=5, seed=31)
        out[r.intervention] = {
            "control": float(r.mean_tickets_control),
            "treated": float(r.mean_tickets_treated),
            "effect": float(r.effect),
            "p_value": float(r.p_value),
        }
    return out


PLANTED_CAUSAL = ("3x change events", "+60 VLANs", "2x devices")


def claims(result):
    mbox = result["middlebox-heavy change mix"]
    noop = result["no-op (negative control)"]
    return {
        # planted-causal practices: intervention raises tickets,
        # significantly
        "§5.2 oracle: events/VLANs/devices interventions raise tickets":
            all(result[name]["effect"] > 0 for name in PLANTED_CAUSAL),
        "§5.2 oracle: those raises are significant (p < 0.01)": all(
            result[name]["p_value"] < 0.01 for name in PLANTED_CAUSAL),
        # the paper's anti-folk-wisdom finding
        "Table 7 oracle: ACL-heavy change mixes raise tickets":
            result["ACL-heavy change mix"]["effect"] > 0,
        # paper: low impact despite operator opinion
        "Fig. 2 oracle: middlebox-heavy change mixes barely move tickets":
            abs(mbox["effect"])
            < max(0.5, 0.5 * result["3x change events"]["effect"]),
        # identical corpora
        "negative control: the no-op effect is exactly 0":
            noop["effect"] == 0.0,
        "negative control: the no-op p-value is exactly 1":
            noop["p_value"] == 1.0,
    }
