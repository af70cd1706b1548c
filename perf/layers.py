"""The per-layer metric table: which public callables a traced run wraps.

Each :class:`Layer` names one callable of the program, rebound from the
outside by :func:`perf.tracing.install` in a traced child, and yields
two per-layer metrics:

* ``<layer>.calls`` — calls observed (count);
* ``<layer>.self_pct`` — the layer's self time (span duration minus its
  children's) as a percentage of the repetition's traced time, set-up
  plus timed calls. A share rather than seconds, because a layer a
  workload never enters reads exactly 0 on every run of it.

:data:`STATS` adds hit ratios, bytes, shard counts and trace sanity
checks. Every entry records the end-to-end metric and workload it should
move (``moves``); ``perf/tests`` checks that ``BENCHMARK.json`` lists
exactly these metrics and that each ``moves`` names a real metric and
workload.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    name: str
    #: ``module:attr`` or ``module:Class.attr``
    target: str
    #: (end-to-end metric, workload) this layer's time should move
    moves: tuple[str, str]


@dataclass(frozen=True)
class Stat:
    name: str
    unit: str
    better: str
    moves: tuple[str, str]


BUILD = ("wall_s", "build-cold")
REFRESH = ("wall_s", "refresh-month")
ANALYZE = ("wall_s", "analyze")
SERVE = ("wall_s", "serve-mixed")

#: The serve workload's timed-call span: one per HTTP request.
SERVE_ROOT = "serve.request"

LAYERS: tuple[Layer, ...] = (
    Layer("confparse.parse_config",
          "repro.confparse.registry:parse_config", BUILD),
    Layer("confparse.diff_configs_cached",
          "repro.confparse.diff:diff_configs_cached", BUILD),
    Layer("metrics.extract_device_features",
          "repro.metrics.design:extract_device_features", BUILD),
    Layer("metrics.config_metrics",
          "repro.metrics.design:config_metrics", BUILD),
    Layer("metrics.group_change_events",
          "repro.metrics.events:group_change_events", BUILD),
    Layer("metrics.monthly_operational_rows",
          "repro.metrics.vectorized:monthly_operational_rows", BUILD),
    Layer("metrics.scrub_corpus",
          "repro.metrics.quality:scrub_corpus", BUILD),
    Layer("metrics.network_stage_keys",
          "repro.metrics.stages:network_stage_keys", REFRESH),
    Layer("metrics.compute_network_unit",
          "repro.metrics.stages:compute_network_unit", BUILD),
    Layer("metrics.build_full",
          "repro.metrics.dataset:build_full", BUILD),
    Layer("core.stagecache_load",
          "repro.core.workspace:StageCache.load", REFRESH),
    Layer("core.stagecache_store",
          "repro.core.workspace:StageCache.store", BUILD),
    Layer("core.organization_model_fit",
          "repro.core.prediction:OrganizationModel.fit", ANALYZE),
    Layer("core.online_prediction_accuracy",
          "repro.core.online:online_prediction_accuracy", ANALYZE),
    Layer("core.predict_extension",
          "repro.core.online:predict_extension", REFRESH),
    Layer("store.append",
          "repro.store.columnar:StoreWriter.append", BUILD),
    Layer("store.commit",
          "repro.store.columnar:StoreWriter.commit", BUILD),
    Layer("store.open",
          "repro.store.columnar:CorpusStore.open", ("setup_s", "serve-mixed")),
    Layer("store.dataset",
          "repro.store.columnar:CorpusStore.dataset", ANALYZE),
    Layer("store.aggregate",
          "repro.store.query:Query.aggregate", SERVE),
    Layer("synthesis.corpus_load",
          "repro.synthesis.corpus:Corpus.load", ("setup_s", "refresh-month")),
    Layer("synthesis.corpus_save",
          "repro.synthesis.corpus:Corpus.save", REFRESH),
    Layer("stream.wal_append",
          "repro.stream.journal:WriteAheadLog.append", REFRESH),
    Layer("stream.wal_sync",
          "repro.stream.journal:WriteAheadLog.sync", REFRESH),
    Layer("stream.checkpoint_save",
          "repro.stream.checkpoint:IngestCheckpoint.save", REFRESH),
    Layer("stream.dataset_save",
          "repro.metrics.dataset:MetricDataset.save", REFRESH),
    Layer("analysis.rank_practices_by_mi",
          "repro.analysis.dependence:rank_practices_by_mi", ANALYZE),
    Layer("analysis.rank_practice_pairs_by_cmi",
          "repro.analysis.dependence:rank_practice_pairs_by_cmi", ANALYZE),
    Layer("analysis.run_causal_analysis",
          "repro.analysis.qed.experiment:run_causal_analysis", ANALYZE),
    Layer("analysis.rank_causes",
          "repro.analysis.causal.attribution:rank_causes", ANALYZE),
    Layer("analysis.estimate_whatif",
          "repro.analysis.causal.engine:estimate_whatif", SERVE),
    Layer("ml.tree_fit", "repro.ml.tree:DecisionTreeClassifier.fit", ANALYZE),
    Layer("ml.tree_predict",
          "repro.ml.tree:DecisionTreeClassifier.predict", ANALYZE),
    Layer("ml.adaboost_fit",
          "repro.ml.boosting:AdaBoostClassifier.fit", ANALYZE),
    Layer("ml.cross_validate",
          "repro.ml.model_eval:cross_validate", ANALYZE),
    Layer("reporting.generate_report",
          "repro.reporting.report:generate_report", ANALYZE),
    *(Layer(f"serve.handler.{endpoint}",
            f"repro.serve.handlers:handle_{endpoint}", SERVE)
      for endpoint in ("query", "top", "pairs", "causal", "whatif",
                       "predict", "quality")),
    Layer("serve.cache_get", "repro.serve.cache:ResultCache.get", SERVE),
    Layer("serve.current",
          "repro.serve.handlers:AnalyticsState.current", SERVE),
    Layer("serve.dispatch",
          "repro.serve.server:AnalyticsHTTPServer.dispatch", SERVE),
    # self time: HTTP parsing, response JSON encoding and socket writes
    Layer("serve.http",
          "repro.serve.server:_RequestHandler.handle_one_request", SERVE),
    # one root span per connection (a request); self time is socket set-up
    Layer("serve.request",
          "repro.serve.server:AnalyticsHTTPServer.finish_request", SERVE),
)

STATS: tuple[Stat, ...] = (
    Stat("confparse.parse_memo.hit_ratio", "ratio", "higher", BUILD),
    Stat("confparse.diff_memo.hit_ratio", "ratio", "higher", BUILD),
    Stat("metrics.feature_memo.hit_ratio", "ratio", "higher", BUILD),
    Stat("core.stagecache_load.hit_ratio", "ratio", "higher", REFRESH),
    Stat("core.stagecache_store.bytes", "B", "lower", BUILD),
    Stat("store.shards_written.count", "count", "lower", REFRESH),
    Stat("store.shards_reused.count", "count", "higher", REFRESH),
    Stat("stream.batches.count", "count", "lower", REFRESH),
    Stat("serve.cache.hit_ratio", "ratio", "higher", SERVE),
    Stat("serve.reloads.count", "count", "lower", SERVE),
    Stat("trace.coverage", "ratio", "higher", BUILD),
    Stat("trace.overhead_pct", "%", "lower", BUILD),
)

#: Modules every child imports before its timed call, traced or not, so
#: tracing changes no import work inside the timed region.
PRELOAD = tuple(sorted({layer.target.split(":")[0] for layer in LAYERS} | {
    "repro.analysis.causal", "repro.cli", "repro.stream.ingest",
}))


def per_layer_specs() -> list[dict]:
    """The ``per_layer`` list ``BENCHMARK.json`` must carry, in order."""
    specs = []
    for layer in LAYERS:
        specs.append({"name": f"{layer.name}.calls", "unit": "count",
                      "better": "lower"})
        specs.append({"name": f"{layer.name}.self_pct", "unit": "%",
                      "better": "lower"})
    specs.extend({"name": s.name, "unit": s.unit, "better": s.better}
                 for s in STATS)
    return specs


def moves() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> the (end-to-end metric, workload) it moves."""
    out = {}
    for layer in LAYERS:
        out[f"{layer.name}.calls"] = layer.moves
        out[f"{layer.name}.self_pct"] = layer.moves
    out.update({s.name: s.moves for s in STATS})
    return out


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def layer_metrics(children: list[dict], traced_s: float,
                  overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``children`` are the traced children's exports (see
    :meth:`perf.tracing.Tracer.export` plus ``memos`` and ``batches``);
    ``traced_s`` is the repetition's set-up plus timed seconds.
    """
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    memos: dict[str, list[int]] = {}
    root_s = covered_s = 0.0
    batches = 0
    for child in children:
        trace = child["trace"]
        for name, (calls, self_s, _total) in trace["spans"].items():
            agg = spans.setdefault(name, [0, 0.0])
            agg[0] += calls
            agg[1] += self_s
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, (hits, misses) in child.get("memos", {}).items():
            agg = memos.setdefault(name, [0, 0])
            agg[0] += hits
            agg[1] += misses
        root_s += trace["root_s"]
        covered_s += trace["covered_s"]
        batches += child.get("batches", 0)

    out: dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s = spans.get(layer.name, (0, 0.0))
        out[f"{layer.name}.calls"] = calls
        out[f"{layer.name}.self_pct"] = 100.0 * self_s / traced_s
    for memo, metric in (("parse", "confparse.parse_memo"),
                         ("diff", "confparse.diff_memo"),
                         ("feature", "metrics.feature_memo")):
        hits, misses = memos.get(memo, (0, 0))
        out[f"{metric}.hit_ratio"] = _ratio(hits, hits + misses)
    out["core.stagecache_load.hit_ratio"] = _ratio(
        counters.get("core.stagecache_load.hits", 0),
        spans.get("core.stagecache_load", (0, 0.0))[0])
    out["core.stagecache_store.bytes"] = counters.get(
        "core.stagecache_store.bytes", 0)
    out["store.shards_written.count"] = counters.get("store.shards_written", 0)
    out["store.shards_reused.count"] = counters.get("store.shards_reused", 0)
    out["stream.batches.count"] = batches
    out["serve.cache.hit_ratio"] = _ratio(
        counters.get("serve.cache.hits", 0),
        spans.get("serve.cache_get", (0, 0.0))[0])
    out["serve.reloads.count"] = counters.get("serve.reloads", 0)
    out["trace.coverage"] = _ratio(covered_s, root_s)
    out["trace.overhead_pct"] = overhead_pct
    return out
