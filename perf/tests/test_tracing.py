import pytest

from perf.layers import LAYERS, layer_metrics
from perf.tracing import Tracer, chrome_trace


def fake_clock(*readings: float):
    pending = list(readings)
    return lambda: pending.pop(0)


def test_self_time_subtracts_children_and_folds_short_leaves():
    # step.build [0, 10] > a [1, 4] > b [2, 3]; leaf c [5, 5.0005]; d [6, 8]
    tracer = Tracer(roots={"step.build"}, clock=fake_clock(
        0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.0005, 6.0, 8.0, 10.0))
    root = tracer.enter("step.build")
    a = tracer.enter("a")
    b = tracer.enter("b")
    tracer.exit(b)
    tracer.exit(a)
    c = tracer.enter("c")
    tracer.exit(c)
    d = tracer.enter("d")
    tracer.exit(d)
    tracer.exit(root)

    out = tracer.export()
    spans = {name: (calls, pytest.approx(self_s), pytest.approx(total))
             for name, (calls, self_s, total) in out["spans"].items()}
    assert spans == {
        "step.build": (1, 10 - 3 - 0.0005 - 2, 10.0),
        "a": (1, 2.0, 3.0),
        "b": (1, 1.0, 1.0),
        "c": (1, 0.0005, 0.0005),
        "d": (1, 2.0, 2.0),
    }
    # the sub-millisecond childless leaf is a counter, not an event
    assert [e[0] for e in out["events"]] == ["b", "a", "d", "step.build"]
    assert out["folded"] == {"c<step.build": [1, pytest.approx(0.0005)]}
    # coverage: direct children of the root span
    assert out["root_s"] == pytest.approx(10.0)
    assert out["covered_s"] == pytest.approx(3.0 + 0.0005 + 2.0)


def test_short_span_with_children_is_kept_as_event():
    tracer = Tracer(clock=fake_clock(0.0, 0.0001, 0.0002, 0.0003))
    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    tracer.exit(inner)
    tracer.exit(outer)
    out = tracer.export()
    assert [e[0] for e in out["events"]] == ["outer"]
    assert list(out["folded"]) == ["inner<outer"]


def test_layer_metrics_and_chrome_trace():
    child = {
        "pid": 42, "step": "build", "batches": 0,
        "memos": {"parse": [1, 3], "diff": [0, 0], "feature": [2, 2]},
        "trace": {
            "spans": {"confparse.parse_config": [4, 1.5, 1.5],
                      "core.stagecache_load": [8, 0.5, 0.5],
                      "step.build": [1, 0.2, 2.0]},
            "counters": {"core.stagecache_load.hits": 6,
                         "core.stagecache_store.bytes": 100},
            "folded": {}, "root_s": 2.0, "covered_s": 1.8,
            "events": [["step.build", "", 0, 10.0, 12.0]],
        },
    }
    metrics = layer_metrics([child], traced_s=3.0, overhead_pct=1.5)
    assert metrics["confparse.parse_config.calls"] == 4
    assert metrics["confparse.parse_config.self_pct"] == pytest.approx(50.0)
    assert metrics["confparse.parse_memo.hit_ratio"] == 0.25
    assert metrics["confparse.diff_memo.hit_ratio"] == 0.0
    assert metrics["core.stagecache_load.hit_ratio"] == 0.75
    assert metrics["core.stagecache_store.bytes"] == 100
    assert metrics["trace.coverage"] == pytest.approx(0.9)
    assert metrics["trace.overhead_pct"] == 1.5
    # a layer the workload never entered reads zero, not missing
    assert metrics["ml.tree_fit.calls"] == 0
    assert len(metrics) == 2 * len(LAYERS) + 12

    trace = chrome_trace([child])
    event = trace["traceEvents"][1]
    assert (event["ph"], event["ts"], event["dur"]) == ("X", 0.0, 2e6)
    assert trace["traceEvents"][0]["args"] == {"name": "build"}
