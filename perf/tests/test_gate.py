import json
from types import SimpleNamespace

import pytest

from perf import cli
from perf.workloads import Rep, _check_bodies


def reps(*outputs):
    return [SimpleNamespace(outputs=o) for o in outputs]


def test_consistent_outputs_pass():
    runs = reps({"manifest_digest": "a"}, {"manifest_digest": "a"})
    goldens = {"7": {"build-cold": {"manifest_digest": "a"}}}
    assert cli._check("build-cold", 7, runs, {}, goldens) == []


def test_every_kind_of_mismatch_is_reported():
    runs = reps({"extend_digest": "x", "resume_digest": "r"},
                {"extend_digest": "y", "resume_digest": "r"})
    expected = {"plus1_dataset_digest": "x", "uninterrupted_digest": "u"}
    goldens = {"11": {"refresh-month": {"extend_digest": "z"}}}
    assert cli._check("refresh-month", 11, runs, expected, goldens) == [
        "extend_digest differs between repetitions",
        "resume_digest != fixture uninterrupted_digest",
        "extend_digest != golden for seed 11",
    ]


def test_goldens_of_other_seeds_are_not_applied():
    runs = reps({"report_sha256": "a"})
    goldens = {"7": {"analyze": {"report_sha256": "b"}}}
    assert cli._check("analyze", 8, runs, {}, goldens) == []


def test_sabotaged_golden_fails_the_run(tmp_path, monkeypatch, capsys):
    goldens = tmp_path / "goldens.json"
    goldens.write_text(json.dumps(
        {"7": {"build-cold": {"manifest_digest": "0" * 64}}}))
    monkeypatch.setattr(cli, "GOLDENS", goldens)
    code = cli.main(["run", "--workload", "build-cold", "--seed", "7",
                     "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == 1
    assert set(last["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def serve_records(*responses):
    return [(f"http://h/q?x={x}", 200,
             {"v": v, "meta": {"store_digest": store, "cached": cached}}, 1.0)
            for x, v, cached, store in responses]


@pytest.mark.parametrize("responses, rotate_at, failed", [
    ([(1, "a", False, "s0"), (1, "a", True, "s0"), (2, "b", False, "s0")],
     3, 0),
    # served from the cache without ever being computed: a key collision
    ([(1, "a", False, "s0"), (2, "a", True, "s0")], 2, 1),
    ([(1, "a", False, "s0"), (1, "b", True, "s0")], 2, 1),
    ([(1, "a", False, "s0"), (1, "b", False, "s0")], 2, 1),
    # the rotation recomputes every request once on the new store
    ([(1, "a", False, "s0"), (1, "a", True, "s0"),
      (1, "c", False, "s1"), (1, "c", True, "s1")], 2, 0),
    # the server never noticed the rotation
    ([(1, "a", False, "s0"), (1, "a", True, "s0"), (1, "a", True, "s0")],
     2, 1),
    # the new store's digest, but the old cache entry: no miss on it
    ([(1, "a", False, "s0"), (1, "a", True, "s1")], 1, 1),
    # the new store before the rotation happened
    ([(1, "a", False, "s1")], 1, 1),
])
def test_serve_bodies_must_match_their_miss(responses, rotate_at, failed):
    rep = Rep()
    _check_bodies(serve_records(*responses), "http://h", rotate_at,
                  ("s0", "s1"), rep)
    assert rep.failed == failed
