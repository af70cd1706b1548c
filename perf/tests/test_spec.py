import copy

import pytest

from perf import layers, spec


@pytest.fixture
def doc():
    return spec.load()


def test_benchmark_json_is_valid(doc):
    assert spec.validate(doc) == []


def test_per_layer_metrics_name_real_metrics_and_workloads():
    for name, (metric, workload) in layers.moves().items():
        assert metric in spec.END_TO_END, name
        assert workload in spec.WORKLOADS, name


def broken(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return spec.validate(doc)


@pytest.mark.parametrize("name", ["", "has space", "-leading", "x" * 65,
                                  "uniçode"])
def test_bad_metric_names_rejected(doc, name):
    def edit(d):
        d["end_to_end"][0]["name"] = name
    assert broken(doc, edit)


def test_duplicate_names_rejected(doc):
    def edit(d):
        d["per_layer"][1]["name"] = d["per_layer"][0]["name"]
    assert any("used twice" in p for p in broken(doc, edit))


def test_too_many_metrics_rejected(doc):
    def edit(d):
        d["end_to_end"] += [{"name": f"m{i}", "unit": "s", "better": "lower",
                             "bound": 0.1} for i in range(16)]
        d["per_layer"] += [{"name": f"l{i}", "unit": "count",
                            "better": "lower"} for i in range(128)]
    problems = broken(doc, edit)
    assert any(p.startswith("end_to_end: 1 to 16") for p in problems)
    assert any(p.startswith("per_layer: 1 to 128") for p in problems)


@pytest.mark.parametrize("key", ["unit", "better", "bound"])
def test_end_to_end_metric_needs_unit_direction_and_bound(doc, key):
    def edit(d):
        del d["end_to_end"][0][key]
    assert broken(doc, edit)


@pytest.mark.parametrize("bound", [0.3, -0.1, "0.1"])
def test_bound_range(doc, bound):
    def edit(d):
        d["end_to_end"][0]["bound"] = bound
    assert broken(doc, edit)


def test_setup_bound_must_be_largest(doc):
    def edit(d):
        for entry in d["end_to_end"]:
            entry["bound"] = 0.2 if entry["name"] == "setup_s" else 0.25
    assert "setup_s must carry the largest bound" in broken(doc, edit)


def test_layer_metric_must_name_a_real_metric(doc, monkeypatch):
    moves = layers.moves()
    moves["ml.tree_fit.calls"] = ("tree_s", "analyze")
    monkeypatch.setattr(layers, "moves", lambda: moves)
    assert broken(doc, lambda d: None) == [
        "ml.tree_fit.calls: names no real end-to-end metric and workload"]


def test_extra_keys_rejected(doc):
    def edit(d):
        d["per_layer"][0]["bound"] = 0.1
    assert broken(doc, edit)
    assert broken(doc, lambda d: d.update(goldens={}))


def test_paths_must_stay_inside_the_repo(doc):
    for path in ("/abs", "../up", "a/../../b"):
        assert broken(doc, lambda d, p=path: d.update(paths=[p]))
