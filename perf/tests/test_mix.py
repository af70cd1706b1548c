from collections import Counter

from perf import inputs

PRACTICES = [f"practice_{i}" for i in range(31)]
NETWORKS = [f"net{i:04d}" for i in range(32)]


def mix(seed):
    universe = inputs.request_universe(seed, PRACTICES, NETWORKS, 8,
                                       PRACTICES[:5])
    return universe, inputs.build_mix(seed, universe)


def test_same_seed_same_requests():
    assert mix(7) == mix(7)


def test_other_seed_other_requests():
    assert [r.target for r in mix(7)[1]] != [r.target for r in mix(11)[1]]
    assert mix(7)[0] != mix(11)[0]


def test_universe_shape():
    universe, requests = mix(3)
    assert {path: len(reqs) for path, reqs in universe.items()} \
        == inputs.DISTINCT
    assert sum(inputs.DISTINCT.values()) == 150
    for reqs in universe.values():
        assert len({r.target for r in reqs}) == len(reqs)
    assert all(dict(r.params)["variant"] == "dt"
               for r in universe["/predict"])


def test_mix_weights():
    _, requests = mix(5)
    assert len(requests) == inputs.SERVE_REQUESTS
    share = Counter(r.path for r in requests)["/query"] / len(requests)
    assert 0.77 < share < 0.83
    assert set(r.path for r in requests) == set(inputs.ENDPOINT_WEIGHTS)
