"""Table 4: top-10 practice pairs by CMI relative to health.

Paper shape: many top pairs are design-design (natural coupling of design
decisions); expected pairs include hardware/firmware entropy and
models/roles; several of the top-10 MI practices are also in dependent
pairs.
"""

from repro.analysis.dependence import (
    rank_practice_pairs_by_cmi,
    rank_practices_by_mi,
)


def run(ctx):
    """The top-10 practice pairs by CMI relative to health."""
    results = rank_practice_pairs_by_cmi(ctx.dataset)

    # structurally coupled pairs must surface near the top
    pair_sets = [{r.practice_a, r.practice_b} for r in results[:25]]
    assert {"hardware_entropy", "firmware_entropy"} in pair_sets
    assert any({"n_models", "n_roles"} <= pair or
               {"n_models", "n_vendors"} <= pair for pair in pair_sets)
    # entangled volume metrics pair up too
    assert any({"n_config_changes", "n_devices_changed"} == pair
               for pair in pair_sets)
    # several top-MI practices participate in dependent pairs (paper: 6/10)
    top_mi = {r.practice for r in rank_practices_by_mi(ctx.dataset)[:10]}
    in_pairs = {p for pair in pair_sets[:10] for p in pair}
    assert len(top_mi & in_pairs) >= 2

    return [[r.practice_a, r.practice_b, float(r.cmi)]
            for r in results[:10]]


def claims(result):
    cmis = [cmi for _a, _b, cmi in result]
    return {
        "Table 4: top-10 CMI values are positive": all(
            cmi > 0 for cmi in cmis),
        "Table 4: top-10 pairs are ordered by CMI": cmis[0] >= cmis[-1],
    }
