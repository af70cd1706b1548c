"""Tests for the long-lived analytics service (:mod:`repro.serve`).

Covers the hash-keyed result cache (keying, LRU pressure, namespace
invalidation), the socket-free endpoint handlers, the HTTP surface over
a real bound port, and the concurrent serve + rewrite contract: a
reader holding the old snapshot finishes on it, the next request sees
the new digest and a fresh cache namespace.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.serve import (
    ENDPOINTS,
    AnalyticsState,
    BadRequest,
    Request,
    ResultCache,
    canonical_params,
    create_server,
    fetch_json,
    result_key,
    run_load,
)
from repro.serve.handlers import (
    handle_causal,
    handle_predict,
    handle_quality,
    handle_query,
    handle_top,
    handle_whatif,
)
from repro.store import StoreError, StoreWriter

NAMES = ["n_devices", "n_change_events", "n_intf_change_events"]
NETWORKS = ("net0", "net1", "net2", "net3")
MONTHS = 6


def _write_store(root, *, seed=0, fill=None):
    """Commit a small deterministic store; ``fill`` overrides values."""
    rng = np.random.default_rng(seed)
    writer = StoreWriter(root)
    for network_id in NETWORKS:
        if fill is None:
            values = rng.random((MONTHS, len(NAMES))) * 5.0
        else:
            values = np.full((MONTHS, len(NAMES)), float(fill))
        tickets = rng.integers(0, 9, MONTHS, dtype=np.int64)
        months = np.arange(MONTHS, dtype=np.int64)
        writer.append(network_id, NAMES, values, tickets, months)
    return writer.commit(NAMES, (2011, 1))


@pytest.fixture()
def store_root(tmp_path):
    root = tmp_path / "dataset.mpstore"
    _write_store(root)
    return root


@pytest.fixture()
def state(store_root):
    return AnalyticsState(store_root)


@pytest.fixture()
def server(state):
    server = create_server(state, port=0, cache_size=32)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _base_url(server) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}"


class TestResultCache:
    def test_canonical_params_order_insensitive(self):
        assert canonical_params({"b": "2", "a": "1"}) == \
            canonical_params({"a": "1", "b": "2"})
        assert result_key("ns", "/top", {"k": "5", "x": "y"}) == \
            result_key("ns", "/top", {"x": "y", "k": "5"})

    def test_key_separates_namespace_endpoint_params(self):
        base = result_key("ns1", "/top", {"k": "5"})
        assert base != result_key("ns2", "/top", {"k": "5"})
        assert base != result_key("ns1", "/pairs", {"k": "5"})
        assert base != result_key("ns1", "/top", {"k": "6"})

    def test_hit_miss_counters(self):
        cache = ResultCache(max_entries=8)
        assert cache.get("ns", "/top", {"k": "1"}) is None
        cache.put("ns", "/top", {"k": "1"}, {"v": 1})
        assert cache.get("ns", "/top", {"k": "1"}) == {"v": 1}
        info = cache.info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.hit_rate == 0.5

    def test_lru_eviction_under_pressure(self):
        """--cache-size pressure: oldest entries fall out, counted."""
        cache = ResultCache(max_entries=2)
        for k in ("1", "2", "3"):
            cache.put("ns", "/top", {"k": k}, {"v": k})
        assert len(cache) == 2
        assert cache.info().evictions == 1
        assert cache.get("ns", "/top", {"k": "1"}) is None  # evicted
        assert cache.get("ns", "/top", {"k": "3"}) == {"v": "3"}
        # a get refreshes recency: "3" survives the next insert
        cache.put("ns", "/top", {"k": "4"}, {"v": "4"})
        assert cache.get("ns", "/top", {"k": "3"}) == {"v": "3"}
        assert cache.get("ns", "/top", {"k": "2"}) is None

    def test_retain_drops_stale_namespaces(self):
        cache = ResultCache(max_entries=8)
        cache.put("old", "/top", {"k": "1"}, {"v": 1})
        cache.put("old", "/pairs", {"k": "1"}, {"v": 2})
        cache.put("new", "/top", {"k": "1"}, {"v": 3})
        assert cache.retain("new") == 2
        assert cache.info().invalidations == 2
        assert len(cache) == 1
        assert cache.get("new", "/top", {"k": "1"}) == {"v": 3}

    def test_zero_size_disables(self):
        cache = ResultCache(max_entries=0)
        cache.put("ns", "/top", {}, {"v": 1})
        assert len(cache) == 0
        with pytest.raises(ValueError, match=">= 0"):
            ResultCache(max_entries=-1)


class TestHandlers:
    def test_query_rows_and_count(self, state):
        snapshot = state.current()
        body = handle_query(snapshot, {"columns": "n_devices",
                                       "months": "0,1", "limit": "3"})
        assert body["total_rows"] == 2 * len(NETWORKS)
        assert body["returned_rows"] == 3
        assert set(body["rows"][0]) == {"network", "n_devices"}
        count = handle_query(snapshot, {"count": "1", "networks": "net0"})
        assert count == {"count": MONTHS}

    def test_query_aggregate_matches_store(self, state):
        snapshot = state.current()
        body = handle_query(snapshot, {"columns": "n_devices",
                                       "aggregate": "sum"})
        direct = snapshot.store.query().aggregate("sum", "n_devices")
        assert body["result"] == pytest.approx(direct)
        grouped = handle_query(snapshot, {"columns": "n_devices",
                                          "aggregate": "mean",
                                          "by": "network"})
        assert [row["key"] for row in grouped["result"]] == list(NETWORKS)

    def test_query_empty_scope_sum_is_zero(self, state):
        """The serve surface of the empty-sum fix: JSON 0.0, not null."""
        snapshot = state.current()
        body = handle_query(snapshot, {"columns": "n_devices",
                                       "aggregate": "sum", "months": "99"})
        assert body["result"] == 0.0
        mean = handle_query(snapshot, {"columns": "n_devices",
                                       "aggregate": "mean", "months": "99"})
        assert mean["result"] is None  # NaN has no strict-JSON spelling

    def test_query_bad_requests(self, state):
        snapshot = state.current()
        with pytest.raises(BadRequest, match="comma-separated integers"):
            handle_query(snapshot, {"columns": "n_devices", "months": "x"})
        with pytest.raises(BadRequest, match="requires aggregate"):
            handle_query(snapshot, {"columns": "n_devices",
                                    "by": "network"})
        with pytest.raises(BadRequest, match="exactly one"):
            handle_query(snapshot, {"aggregate": "sum",
                                    "columns": "n_devices,tickets"})
        with pytest.raises(BadRequest, match="needs columns"):
            handle_query(snapshot, {})
        with pytest.raises(StoreError, match="did you mean"):
            handle_query(snapshot, {"columns": "n_devicez",
                                    "aggregate": "sum"})

    def test_top_and_causal(self, state):
        snapshot = state.current()
        body = handle_top(snapshot, {"k": "2"})
        assert len(body["practices"]) == 2
        assert set(body["practices"][0]) == {"practice", "avg_monthly_mi"}
        causal = handle_causal(snapshot,
                               {"treatment": "n_change_events"})
        assert causal["treatment"] == "n_change_events"
        with pytest.raises(BadRequest, match="unknown treatment"):
            handle_causal(snapshot, {"treatment": "nope"})
        with pytest.raises(BadRequest, match="treatment"):
            handle_causal(snapshot, {})

    def test_predict_validation(self, state):
        snapshot = state.current()
        body = handle_predict(snapshot, {"history": "2"})
        assert body["history_months"] == 2
        assert len(body["monthly_accuracy"]) == \
            len(body["evaluated_months"])
        with pytest.raises(BadRequest, match="classes must be 2 or 5"):
            handle_predict(snapshot, {"classes": "3"})
        with pytest.raises(BadRequest, match="not an integer"):
            handle_predict(snapshot, {"history": "soon"})

    def test_whatif_scenario_mode(self, state):
        snapshot = state.current()
        body = handle_whatif(snapshot, {"network": "net0",
                                        "practice": "n_change_events"})
        assert body["mode"] == "scenario"
        assert body["network"] == "net0"
        assert body["practice"] == "n_change_events"
        assert len(body["trajectory"]) == len(body["months"])
        point = body["trajectory"][0]
        assert {"month", "observed", "counterfactual",
                "counterfactual_range", "n_donors", "excess"} <= set(point)
        # no case of the scenario network may donate to itself
        assert all(p["n_donors"] >= 1 for p in body["trajectory"])

    def test_whatif_attribution_mode(self, state):
        snapshot = state.current()
        body = handle_whatif(snapshot, {"network": "worst", "limit": "2"})
        assert body["mode"] == "attribution"
        assert body["network"] in NETWORKS
        assert body["window"]["months"]
        assert len(body["causes"]) <= 2
        for cause in body["causes"]:
            assert {"practice", "effect", "excess_tickets", "p_value",
                    "attributed"} <= set(cause)

    def test_whatif_bad_requests(self, state):
        snapshot = state.current()
        with pytest.raises(BadRequest, match="needs network="):
            handle_whatif(snapshot, {})
        with pytest.raises(BadRequest, match="unknown network"):
            handle_whatif(snapshot, {"network": "net9"})
        with pytest.raises(BadRequest, match="unknown metric"):
            handle_whatif(snapshot, {"network": "net0",
                                     "practice": "nope"})
        with pytest.raises(BadRequest, match="not a number"):
            handle_whatif(snapshot, {"network": "net0",
                                     "practice": "n_devices",
                                     "value": "lots"})
        with pytest.raises(BadRequest, match="comma-separated integers"):
            handle_whatif(snapshot, {"network": "net0", "months": "x"})

    def test_quality_with_and_without_ledger(self, tmp_path, store_root):
        without = AnalyticsState(store_root).current()
        assert handle_quality(without, {})["available"] is False
        ledger = tmp_path / "quality.json"
        from repro.metrics.quality import DataQualityReport
        report = DataQualityReport(snapshots_total=10, snapshots_parsed=9)
        report.quarantine_snapshot("dev0", "net0", "torn header")
        ledger.write_text(json.dumps(report.to_dict()))
        with_ledger = AnalyticsState(store_root, ledger).current()
        body = handle_quality(with_ledger, {})
        assert body["available"] is True
        assert body["n_issues"] == 1
        assert "torn header" in body["issues"][0]

    def test_snapshot_namespace_binds_quality(self, tmp_path, store_root):
        """Same store, different ledger -> different cache namespace."""
        bare = AnalyticsState(store_root).current()
        ledger = tmp_path / "quality.json"
        ledger.write_text(json.dumps({"snapshots_total": 1}))
        with_ledger = AnalyticsState(store_root, ledger).current()
        assert bare.digest == with_ledger.digest
        assert bare.namespace != with_ledger.namespace


class TestHTTPServer:
    def test_healthz_and_statsz(self, server):
        base = _base_url(server)
        status, body = fetch_json(f"{base}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["rows"] == len(NETWORKS) * MONTHS
        status, stats = fetch_json(f"{base}/statsz")
        assert status == 200
        assert stats["store_digest"] == body["store_digest"]
        assert {"cache", "endpoints", "memos", "reloads"} <= set(stats)

    def test_every_endpoint_family_answers(self, server):
        base = _base_url(server)
        urls = {
            "/query": "/query?columns=n_devices&aggregate=mean&by=month",
            "/top": "/top?k=3",
            "/pairs": "/pairs?k=2",
            "/causal": "/causal?treatment=n_change_events",
            "/whatif": "/whatif?network=worst",
            "/predict": "/predict?history=2",
            "/quality": "/quality",
        }
        assert set(urls) == set(ENDPOINTS)
        for path, url in urls.items():
            status, body = fetch_json(base + url)
            assert status == 200, (path, body)
            assert body["meta"]["endpoint"] == path
            assert body["meta"]["cached"] is False

    def test_repeat_query_served_from_cache(self, server):
        base = _base_url(server)
        url = f"{base}/top?k=4"
        _, cold = fetch_json(url)
        assert cold["meta"]["cached"] is False
        _, warm = fetch_json(url)
        assert warm["meta"]["cached"] is True
        # identical payload modulo the meta block
        cold.pop("meta"), warm.pop("meta")
        assert warm == cold
        _, stats = fetch_json(f"{base}/statsz")
        assert stats["cache"]["hits"] == 1
        top = [e for e in stats["endpoints"] if e["path"] == "/top"][0]
        assert top == {"path": "/top", "requests": 2, "errors": 0,
                       "cache_hits": 1, "mean_ms": top["mean_ms"]}

    def test_param_order_hits_same_entry(self, server):
        base = _base_url(server)
        fetch_json(f"{base}/query?columns=n_devices&aggregate=sum"
                   f"&months=0,1")
        _, again = fetch_json(f"{base}/query?months=0,1"
                              f"&aggregate=sum&columns=n_devices")
        assert again["meta"]["cached"] is True

    def test_error_surface(self, server):
        base = _base_url(server)
        status, body = fetch_json(f"{base}/query?columns=n_devicez"
                                  f"&aggregate=sum")
        assert status == 400
        assert "did you mean 'n_devices'" in body["error"]
        assert body["error_type"] == "StoreError"
        status, body = fetch_json(f"{base}/predict?classes=3")
        assert status == 400 and body["error_type"] == "BadRequest"
        status, body = fetch_json(f"{base}/no-such-endpoint")
        assert status == 404
        assert "/query" in body["endpoints"]
        _, stats = fetch_json(f"{base}/statsz")
        assert stats["errors_total"] == 2

    def test_load_generator_roundtrip(self, server):
        base = _base_url(server)
        mix = [
            Request("/query", {"columns": "n_devices",
                               "aggregate": "sum"}),
            Request("/top", {"k": "3"}),
            Request("/healthz"),
        ]
        result = run_load(base, mix, total_requests=30, concurrency=3)
        assert result.total_requests == 30
        assert result.ok_responses == 30 and result.errors == 0
        assert result.cache_hits >= 18  # 20 cacheable, first 2 are cold
        assert result.queries_per_second > 0
        assert 0 < result.p50_ms <= result.p99_ms


class TestConcurrentRewrite:
    def test_reader_mid_request_finishes_on_old_snapshot(self, state):
        """The inode-pinned snapshot contract at the serve layer: a
        handler holding snapshot N is unaffected by a commit of N+1."""
        snapshot = state.current()
        before = handle_query(snapshot, {"columns": "n_devices",
                                         "aggregate": "sum"})
        _write_store(state.store_root, fill=7.0)  # concurrent rewrite+GC
        # the held snapshot still answers, bit-identically
        again = handle_query(snapshot, {"columns": "n_devices",
                                        "aggregate": "sum"})
        assert again["result"] == before["result"]
        expected_new = 7.0 * MONTHS * len(NETWORKS)
        assert before["result"] != pytest.approx(expected_new)
        # the *next* request sees the new commit and a fresh namespace
        fresh = state.current()
        assert fresh.digest != snapshot.digest
        assert fresh.namespace != snapshot.namespace
        assert state.reloads == 1
        after = handle_query(fresh, {"columns": "n_devices",
                                     "aggregate": "sum"})
        assert after["result"] == pytest.approx(expected_new)

    def test_http_rewrite_rotates_digest_and_cache(self, state, server):
        base = _base_url(server)
        url = f"{base}/query?columns=n_devices&aggregate=sum"
        _, first = fetch_json(url)
        _, warm = fetch_json(url)
        assert warm["meta"]["cached"] is True
        _write_store(state.store_root, fill=3.0)
        _, after = fetch_json(url)
        # new digest, and the identical query is a MISS again: the
        # result cache namespace rotated with the manifest digest
        assert after["meta"]["store_digest"] != first["meta"]["store_digest"]
        assert after["meta"]["cached"] is False
        assert after["result"] == pytest.approx(
            3.0 * MONTHS * len(NETWORKS))
        _, stats = fetch_json(f"{base}/statsz")
        assert stats["reloads"] == 1
        assert stats["cache"]["invalidations"] >= 1
        _, rewarm = fetch_json(url)
        assert rewarm["meta"]["cached"] is True

    def test_unchanged_recommit_keeps_namespace(self, state):
        """A byte-identical recommit (same digest) must NOT invalidate:
        the cache key is content, not commit count."""
        first = state.current()
        _write_store(state.store_root)  # same seed -> same bytes
        second = state.current()
        assert second.digest == first.digest
        assert second.namespace == first.namespace
        assert state.reloads == 0  # same content, not a reload
