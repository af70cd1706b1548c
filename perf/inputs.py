"""The benchmark's seeded inputs: the corpus shape and the serve request mix.

**Corpus.** Every workload runs on a synthetic organization of
:data:`N_NETWORKS` networks x :data:`N_MONTHS` months from
:mod:`repro.synthesis`, seeded by ``--seed``. Network sizes in the
synthesizer are long-tailed: at this scale, over seeds 1-10, the
interquartile range of a cold build's time is 0.31 of its median, more
than any metric's bound allows, so a seed would say more about the input
than about the code. The synthesizer's ``profile_transform`` hook pins
each network's *size* fields (device count, VLANs, change rate, change
spread, richness) to the profile the same network gets under
:data:`REFERENCE_SEED`, while ``--seed`` still draws everything else:
vendors, roles, middleboxes, protocols, automation, change mix, every
config text and every ticket. Under seed 7 the transform is the identity.

At this shape the corpus holds ~5,100 snapshots, more than the program's
4,096-entry content memos, so a build still runs with a memo working set
larger than the memo — the regime a real corpus is in.

**Serve mix.** :func:`build_mix` draws the ``serve-mixed`` request
sequence: an endpoint by fixed weight (``/query`` ~80%), then one of that
endpoint's distinct requests by a Zipf(s=1.1) rank over a seeded
permutation. The result depends on the seed and the store's practice
names only.
"""

from __future__ import annotations

import dataclasses
import random
from urllib.parse import urlencode

#: Name under which the benchmark's corpus shape is registered in
#: ``repro.synthesis.organization.SCALES`` inside every process it runs.
SCALE = "perf"
N_NETWORKS = 32
N_MONTHS = 8
REFERENCE_SEED = 7
#: Everything that fixes the corpus besides the seed (part of fixture keys).
SCALE_TAG = f"{SCALE}-{N_NETWORKS}x{N_MONTHS}-sizes{REFERENCE_SEED}"

#: Profile fields held at the reference seed's values.
PINNED_FIELDS = ("n_devices", "n_vlans", "event_rate", "event_spread",
                 "richness")

#: serve-mixed: requests per run, and where the store rotation happens
SERVE_REQUESTS = 4000
SERVE_ROTATE_AT = 2000
ZIPF_S = 1.1
ENDPOINT_WEIGHTS = {
    "/query": 0.80, "/top": 0.04, "/pairs": 0.02, "/causal": 0.04,
    "/whatif": 0.04, "/predict": 0.03, "/quality": 0.03,
}
#: distinct requests per endpoint (150 in all)
DISTINCT = {
    "/query": 110, "/top": 6, "/pairs": 3, "/causal": 10, "/whatif": 10,
    "/predict": 6, "/quality": 5,
}


def register_scale() -> None:
    """Make ``Workspace(SCALE, seed, ...)`` resolve to the benchmark shape."""
    from repro.synthesis.organization import SCALES, SynthesisSpec
    SCALES[SCALE] = SynthesisSpec(N_NETWORKS, N_MONTHS, REFERENCE_SEED)


class PinnedSizes:
    """``profile_transform`` holding size fields at the reference seed."""

    def __init__(self) -> None:
        from repro.util.rng import SeedSequenceTree
        self._reference = SeedSequenceTree(REFERENCE_SEED)

    def __call__(self, profile):
        from repro.synthesis.profiles import sample_profile
        network_id = profile.network_id
        reference = sample_profile(
            network_id, self._reference.rng(f"profile/{network_id}"))
        return dataclasses.replace(profile, **{
            name: getattr(reference, name) for name in PINNED_FIELDS})


def synthesize(seed: int, n_months: int = N_MONTHS):
    """The benchmark corpus for ``seed`` over ``n_months`` months."""
    from repro.synthesis.organization import (
        OrganizationSynthesizer,
        SynthesisSpec,
    )
    spec = SynthesisSpec(N_NETWORKS, n_months, seed)
    return OrganizationSynthesizer(spec,
                                   profile_transform=PinnedSizes()).build()


# -- serve-mixed request mix --------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Request:
    """One distinct request: endpoint path + query parameters."""

    path: str
    params: tuple[tuple[str, str], ...] = ()

    @property
    def target(self) -> str:
        """Path plus canonical query string (the request's identity)."""
        query = urlencode(sorted(self.params))
        return self.path + (f"?{query}" if query else "")


def _distinct(make, count: int) -> list[Request]:
    """``count`` distinct requests from the seeded generator ``make``."""
    seen: dict[str, Request] = {}
    for _ in range(count * 50):
        if len(seen) == count:
            break
        request = make()
        seen.setdefault(request.target, request)
    if len(seen) < count:
        raise ValueError(f"could not draw {count} distinct requests")
    return list(seen.values())


def request_universe(seed: int, practices: list[str], networks: list[str],
                     n_months: int, scenario_practices: list[str],
                     ) -> dict[str, list[Request]]:
    """The distinct requests of each endpoint, drawn from ``seed``."""
    rng = random.Random(f"serve-universe/{seed}")

    def query() -> Request:
        kind = rng.random()
        if kind < 0.7:
            params = [("columns", rng.choice(practices)),
                      ("aggregate", rng.choice(("mean", "sum", "min",
                                                "max")))]
            by = rng.choice((None, "network", "month"))
            if by:
                params.append(("by", by))
            if rng.random() < 0.3:
                months = sorted(rng.sample(range(n_months),
                                           rng.randint(1, 3)))
                params.append(("months", ",".join(map(str, months))))
            return Request("/query", tuple(params))
        if kind < 0.9:
            columns = rng.sample(practices, rng.randint(1, 3))
            params = [("columns", ",".join(columns)),
                      ("limit", str(rng.choice((10, 20, 50))))]
            if rng.random() < 0.5:
                params.append(("networks", ",".join(
                    sorted(rng.sample(networks, rng.randint(1, 4))))))
            return Request("/query", tuple(params))
        picked = sorted(rng.sample(networks, rng.randint(1, 6)))
        return Request("/query", (("count", "1"),
                                  ("networks", ",".join(picked))))

    def whatif() -> Request:
        network = rng.choice(["worst"] + networks)
        if rng.random() < 0.3:
            return Request("/whatif", (("network", network),))
        return Request("/whatif", (("network", network),
                                   ("practice",
                                    rng.choice(scenario_practices))))

    makers = {
        "/query": query,
        "/top": lambda: Request("/top", (("k", str(rng.randint(3, 15))),)),
        "/pairs": lambda: Request("/pairs",
                                  (("k", str(rng.choice((5, 10, 15)))),)),
        "/causal": lambda: Request("/causal", (("treatment",
                                                rng.choice(practices)),)),
        "/whatif": whatif,
        "/predict": lambda: Request("/predict", (
            ("classes", str(rng.choice((2, 5)))),
            ("history", str(rng.randint(1, 3))),
            ("variant", "dt"))),
        "/quality": lambda: Request("/quality", (
            ("limit", str(rng.choice((0, 5, 10, 20, 50)))),)),
    }
    return {path: _distinct(makers[path], DISTINCT[path])
            for path in ENDPOINT_WEIGHTS}


def build_mix(seed: int, universe: dict[str, list[Request]],
              total: int = SERVE_REQUESTS) -> list[Request]:
    """The ``total``-request sequence: endpoint by weight, then Zipf rank."""
    rng = random.Random(f"serve-mix/{seed}")
    paths = list(ENDPOINT_WEIGHTS)
    ranked: dict[str, tuple[list[Request], list[float]]] = {}
    for path in paths:
        order = list(universe[path])
        rng.shuffle(order)
        weights = [1.0 / (rank ** ZIPF_S)
                   for rank in range(1, len(order) + 1)]
        ranked[path] = (order, weights)
    endpoint_weights = [ENDPOINT_WEIGHTS[path] for path in paths]
    mix = []
    for path in rng.choices(paths, endpoint_weights, k=total):
        order, weights = ranked[path]
        mix.append(rng.choices(order, weights)[0])
    return mix
